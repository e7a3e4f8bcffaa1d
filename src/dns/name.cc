#include "dns/name.h"

#include <algorithm>
#include <cctype>

#include "util/assert.h"

namespace dnscup::dns {

namespace {

constexpr std::size_t kMaxLabelLength = 63;
constexpr std::size_t kMaxWireLength = 255;

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::size_t wire_length_of(const std::vector<std::string>& labels) {
  std::size_t len = 1;  // terminal root octet
  for (const auto& l : labels) len += 1 + l.size();
  return len;
}

}  // namespace

bool label_equal(std::string_view a, std::string_view b) {
  return label_compare(a, b) == 0;
}

int label_compare(std::string_view a, std::string_view b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = ascii_lower(a[i]);
    const char cb = ascii_lower(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

util::Result<Name> Name::parse(std::string_view text) {
  if (text.empty()) {
    return util::make_error(util::ErrorCode::kMalformed, "empty name");
  }
  if (text == ".") return Name();

  // Strip one trailing dot (fully-qualified form).
  if (text.back() == '.') text.remove_suffix(1);

  std::vector<std::string> labels;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::string_view label =
        text.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (label.empty()) {
      return util::make_error(util::ErrorCode::kMalformed,
                              "empty label in '" + std::string(text) + "'");
    }
    if (label.size() > kMaxLabelLength) {
      return util::make_error(util::ErrorCode::kMalformed,
                              "label longer than 63 octets");
    }
    labels.emplace_back(label);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (wire_length_of(labels) > kMaxWireLength) {
    return util::make_error(util::ErrorCode::kMalformed,
                            "name longer than 255 octets");
  }
  Name n;
  n.labels_ = std::move(labels);
  return n;
}

Name Name::from_labels(std::vector<std::string> labels) {
  for (const auto& l : labels) {
    DNSCUP_ASSERT(!l.empty() && l.size() <= kMaxLabelLength);
  }
  DNSCUP_ASSERT(wire_length_of(labels) <= kMaxWireLength);
  Name n;
  n.labels_ = std::move(labels);
  return n;
}

std::size_t Name::wire_length() const { return wire_length_of(labels_); }

Name Name::parent() const {
  DNSCUP_ASSERT(!is_root());
  Name n;
  n.labels_.assign(labels_.begin() + 1, labels_.end());
  return n;
}

Name Name::prepend(std::string_view label) const {
  DNSCUP_ASSERT(!label.empty() && label.size() <= kMaxLabelLength);
  Name n;
  n.labels_.reserve(labels_.size() + 1);
  n.labels_.emplace_back(label);
  n.labels_.insert(n.labels_.end(), labels_.begin(), labels_.end());
  DNSCUP_ASSERT(n.wire_length() <= kMaxWireLength);
  return n;
}

Name Name::concat(const Name& origin) const {
  Name n;
  n.labels_.reserve(labels_.size() + origin.labels_.size());
  n.labels_.insert(n.labels_.end(), labels_.begin(), labels_.end());
  n.labels_.insert(n.labels_.end(), origin.labels_.begin(),
                   origin.labels_.end());
  DNSCUP_ASSERT(n.wire_length() <= kMaxWireLength);
  return n;
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  if (ancestor.labels_.size() > labels_.size()) return false;
  return common_suffix_labels(ancestor) == ancestor.labels_.size();
}

std::size_t Name::common_suffix_labels(const Name& other) const {
  std::size_t shared = 0;
  auto a = labels_.rbegin();
  auto b = other.labels_.rbegin();
  while (a != labels_.rend() && b != other.labels_.rend() &&
         label_equal(*a, *b)) {
    ++shared;
    ++a;
    ++b;
  }
  return shared;
}

std::string Name::to_string() const {
  if (is_root()) return ".";
  std::string out;
  for (const auto& l : labels_) {
    out += l;
    out += '.';
  }
  return out;
}

bool Name::operator==(const Name& other) const {
  if (labels_.size() != other.labels_.size()) return false;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (!label_equal(labels_[i], other.labels_[i])) return false;
  }
  return true;
}

bool Name::operator<(const Name& other) const {
  auto a = labels_.rbegin();
  auto b = other.labels_.rbegin();
  while (a != labels_.rend() && b != other.labels_.rend()) {
    const int c = label_compare(*a, *b);
    if (c != 0) return c < 0;
    ++a;
    ++b;
  }
  return labels_.size() < other.labels_.size();
}

namespace {

/// FNV-1a over lowercased labels with a separator per label; Name::hash()
/// and NameView::hash() both call this so heterogeneous lookups agree.
template <typename LabelAt>
std::size_t hash_labels(std::size_t count, LabelAt&& label_at) {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  };
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view l = label_at(i);
    for (char c : l) mix(ascii_lower(c));
    mix('\0');
  }
  return h;
}

}  // namespace

std::size_t Name::hash() const {
  return hash_labels(labels_.size(),
                     [this](std::size_t i) -> std::string_view {
                       return labels_[i];
                     });
}

int compare_name_to_labels(const Name& a,
                           std::span<const std::string_view> b) {
  const std::size_t na = a.label_count();
  const std::size_t nb = b.size();
  const std::size_t n = std::min(na, nb);
  for (std::size_t i = 1; i <= n; ++i) {
    const int c = label_compare(a.label(na - i), b[nb - i]);
    if (c != 0) return c;
  }
  if (na == nb) return 0;
  return na < nb ? -1 : 1;
}

std::size_t NameView::wire_length() const {
  std::size_t len = 1;
  for (std::size_t i = 0; i < count_; ++i) len += 1 + labels_[i].size();
  return len;
}

void NameView::push_label(std::string_view label) {
  DNSCUP_ASSERT(count_ < kMaxLabels);
  DNSCUP_ASSERT(!label.empty() && label.size() <= kMaxLabelLength);
  labels_[count_++] = label;
}

NameView NameView::of(const Name& name) {
  NameView view;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    view.push_label(name.label(i));
  }
  return view;
}

Name NameView::materialize() const {
  std::vector<std::string> labels;
  labels.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) labels.emplace_back(labels_[i]);
  return Name::from_labels(std::move(labels));
}

bool NameView::equals(const Name& other) const {
  if (count_ != other.label_count()) return false;
  for (std::size_t i = 0; i < count_; ++i) {
    if (!label_equal(labels_[i], other.label(i))) return false;
  }
  return true;
}

int NameView::compare(const Name& other) const {
  return -compare_name_to_labels(other, labels());
}

bool NameView::is_subdomain_of(const Name& ancestor) const {
  const std::size_t nb = ancestor.label_count();
  if (nb > count_) return false;
  for (std::size_t i = 1; i <= nb; ++i) {
    if (!label_equal(labels_[count_ - i], ancestor.label(nb - i))) {
      return false;
    }
  }
  return true;
}

std::size_t NameView::hash() const {
  return hash_labels(count_, [this](std::size_t i) { return labels_[i]; });
}

std::string NameView::to_string() const {
  if (is_root()) return ".";
  std::string out;
  for (std::size_t i = 0; i < count_; ++i) {
    out += labels_[i];
    out += '.';
  }
  return out;
}

}  // namespace dnscup::dns
