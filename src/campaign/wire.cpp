#include "campaign/wire.hpp"

#include <cstring>
#include <stdexcept>

namespace pab::campaign {

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

std::uint8_t ByteReader::u8() {
  if (pos_ >= bytes_.size())
    throw std::runtime_error("campaign wire: truncated payload");
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  if (bytes_.size() - pos_ < n)
    throw std::runtime_error("campaign wire: truncated payload");
  std::string out(bytes_.substr(pos_, n));
  pos_ += n;
  return out;
}

void write_metrics(ByteWriter& w, const obs::MetricsSnapshot& m) {
  w.u32(static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, v] : m.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.gauges.size()));
  for (const auto& [name, v] : m.gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u32(static_cast<std::uint32_t>(m.histograms.size()));
  for (const auto& [name, h] : m.histograms) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(h.bounds.size()));
    for (const double b : h.bounds) w.f64(b);
    for (const std::uint64_t c : h.buckets) w.u64(c);
    w.u64(h.count);
    w.f64(h.sum);
  }
}

obs::MetricsSnapshot read_metrics(ByteReader& r) {
  obs::MetricsSnapshot m;
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    m.counters.emplace(std::move(name), r.u64());
  }
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    m.gauges.emplace(std::move(name), r.f64());
  }
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    const std::uint32_t bounds = r.u32();
    h.bounds.reserve(bounds);
    for (std::uint32_t b = 0; b < bounds; ++b) h.bounds.push_back(r.f64());
    h.buckets.resize(bounds + 1);
    for (auto& c : h.buckets) c = r.u64();
    h.count = r.u64();
    h.sum = r.f64();
    m.histograms.emplace(std::move(name), std::move(h));
  }
  return m;
}

}  // namespace pab::campaign
