// Campaign wire format: the canonical byte encoding.
//
// Everything the campaign engine persists or compares -- record batches,
// metric snapshots, checkpoint shard files, pab_serve's `.records` artifact
// -- goes through one canonical little-endian encoding, so "the same
// results" is testable as byte equality: a resumed or re-sharded campaign
// and a straight run serialize to identical bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace pab::campaign {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v);  // IEEE-754 bit pattern, little-endian
  // Length-prefixed string (u32 length + bytes).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Reader over a complete in-memory payload.  Truncation (a malformed or
// short payload) throws std::runtime_error; the checkpoint loader catches it
// and surfaces a pab::Error.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// Metric snapshot codec: the per-shard deltas embedded in checkpoint shard
// files.
void write_metrics(ByteWriter& w, const obs::MetricsSnapshot& m);
[[nodiscard]] obs::MetricsSnapshot read_metrics(ByteReader& r);

}  // namespace pab::campaign
