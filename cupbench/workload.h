// Seeded inputs shared by the load generator (load.cc) and the traced
// replay (trace.cc), so both see the same names, addresses and query mix
// for a given --seed.  run.py writes the zone file with the same naming
// and address rule (zone_address), so no component needs the other's
// output to know what a correct answer is.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace cupbench {

inline constexpr const char* kZoneOrigin = "bench.test";
inline constexpr uint32_t kRecordTtl = 3600;
/// A names in the zone (run.py's NAMES writes the same zone).
inline constexpr uint32_t kNames = 100000;

inline uint64_t mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Small deterministic generator (splitmix64 stream).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() { return mix64(state_++ * 0xD1B54A32D192ED03ull); }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  uint32_t below(uint32_t n) {
    return static_cast<uint32_t>((next() >> 32) * n >> 32);
  }

 private:
  uint64_t state_;
};

/// Zipf(s = 1.0) over ranks [0, n): P(rank r) ∝ 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(uint32_t n) : cdf_(n) {
    double sum = 0;
    for (uint32_t r = 0; r < n; ++r) {
      sum += 1.0 / (r + 1.0);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? static_cast<uint32_t>(cdf_.size() - 1)
                            : static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline uint32_t address_salt(uint64_t seed) {
  return static_cast<uint32_t>(mix64(seed ^ 0xA5A5) & 0xFFFFFF);
}

/// The zone's A address for name index i: 10.x.y.z, a bijection of i.
inline uint32_t zone_address(uint32_t i, uint32_t salt) {
  return (10u << 24) | ((i * 2654435761u + salt) & 0xFFFFFFu);
}

/// Address written by update number u: 11.x.y.z, unique per update and
/// disjoint from every zone address.
inline uint32_t update_address(uint32_t u) {
  return (11u << 24) | (u & 0xFFFFFFu);
}

inline std::string name_text(uint32_t i) {
  std::string text = "n";
  text += std::to_string(i);
  text += '.';
  text += kZoneOrigin;
  return text;
}

/// rank -> name index: the Zipf popularity order is a seeded shuffle, so
/// the hot names differ between seeds.
inline std::vector<uint32_t> popularity_order(uint32_t names, uint64_t seed) {
  std::vector<uint32_t> order(names);
  for (uint32_t i = 0; i < names; ++i) order[i] = i;
  Rng rng(seed ^ 0x5EED0001);
  for (uint32_t i = names; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// One generated read: which name, and whether it asks for a lease.
struct Read {
  uint32_t name = 0;
  bool ext = false;
};

/// The k-th read of one generator thread: a pure function of
/// (seed, stream, k) via a per-stream generator, so the traced replay can
/// regenerate exactly what the load generator sent.
class ReadStream {
 public:
  ReadStream(uint64_t seed, uint32_t stream, const Zipf& zipf,
             const std::vector<uint32_t>& order, double ext_fraction)
      : rng_(mix64(seed) ^ (0x1000 + stream)),
        zipf_(&zipf),
        order_(&order),
        ext_fraction_(ext_fraction) {}
  Read next() {
    Read r;
    r.name = (*order_)[zipf_->sample(rng_)];
    r.ext = ext_fraction_ > 0 && rng_.uniform() < ext_fraction_;
    return r;
  }

 private:
  Rng rng_;
  const Zipf* zipf_;
  const std::vector<uint32_t>* order_;
  double ext_fraction_;
};

/// Names the u-th UPDATE repoints: Zipf over the hot set.
inline std::vector<uint32_t> update_names(uint64_t seed, uint32_t count,
                                          const Zipf& hot_zipf,
                                          const std::vector<uint32_t>& order) {
  Rng rng(mix64(seed) ^ 0x0DD0);
  std::vector<uint32_t> names(count);
  for (uint32_t u = 0; u < count; ++u) names[u] = order[hot_zipf.sample(rng)];
  return names;
}

}  // namespace cupbench
