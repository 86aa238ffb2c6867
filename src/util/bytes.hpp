// Bounds-checked little-endian byte-stream codec (pdet::util).
//
// One binary serialization idiom for everything that crosses a durability or
// machine boundary: svm model files (svm/model_io) and the network wire
// protocol (net/wire) encode through the same ByteWriter and decode through
// the same ByteReader, so "does this codec round-trip, reject truncation,
// reject corruption" is tested once.
//
//   ByteWriter  appends to a caller-owned std::vector<uint8_t>; steady-state
//               encodes into a reused buffer perform no allocation once the
//               buffer has reached its high-water capacity (the engine /
//               runtime reuse discipline, applied to serialization).
//   ByteReader  walks a read-only span with a sticky failure flag: any read
//               past the end (or after a failed read) yields zero values and
//               leaves ok() false. Callers decode straight-line and check
//               ok() once at the end — no per-field error plumbing.
//
// Byte order is explicitly little-endian regardless of host (bytes are
// assembled by shifts, with a memcpy fast path on LE hosts for float
// arrays), so files and wire frames are portable across the SoC / host
// boundary the deployment papers describe.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/simd.hpp"

namespace pdet::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib/Ethernet one).
/// `seed` chains incremental updates: crc32(b, crc32(a)) == crc32(a ++ b).
/// Runs crc_kernels().active().
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

/// One ISA's copy of crc32. Every copy returns the same digest bit for bit.
struct CrcKernels {
  std::uint32_t (*crc32)(std::span<const std::uint8_t> data,
                         std::uint32_t seed);
};

/// The copies (util::simd seam): the baseline byte-at-a-time table loop and
/// the AVX2 copy's carry-less-multiply fold (crc_kernels.inc).
const simd::Kernels<CrcKernels>& crc_kernels();

class ByteWriter {
 public:
  /// Appends to `out` (not cleared: frames can be concatenated). The caller
  /// keeps ownership; the writer must not outlive the vector.
  explicit ByteWriter(std::vector<std::uint8_t>& out)
      : out_(out), start_(out.size()) {}

  /// Bytes appended through this writer (since construction).
  std::size_t written() const { return out_.size() - start_; }
  /// Absolute offset in the underlying vector where the next byte lands.
  std::size_t offset() const { return out_.size(); }

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);
  /// u32 byte length followed by the raw bytes (no terminator).
  void str(std::string_view s);
  /// Contiguous f32 payload (image pixels, model weights): one append.
  void f32_array(std::span<const float> values);

  /// Overwrite 4 bytes at absolute offset `at` (which must already have been
  /// written) — used to patch a length/CRC field after the payload is known.
  void patch_u32(std::size_t at, std::uint32_t v);

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t start_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// False once any read ran past the end (sticky).
  bool ok() const { return !failed_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }
  /// True when every byte was consumed and nothing failed.
  bool exhausted() const { return ok() && pos_ == data_.size(); }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  bool skip(std::size_t n);
  /// Fill `dst` exactly; on underflow, fails and leaves `dst` untouched.
  bool bytes(std::span<std::uint8_t> dst);
  /// Counterpart of ByteWriter::str. Fails (returning false, `out`
  /// untouched) when the declared length exceeds `max_len` or the remaining
  /// bytes. On success `out` is assign()ed — reused capacity, no allocation
  /// once warm.
  bool str(std::string& out, std::size_t max_len = 1u << 20);
  /// Fill `dst` with dst.size() little-endian f32 values.
  bool f32_array(std::span<float> dst);

 private:
  bool take(std::size_t n);  ///< advance pos_ or set failed_

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace pdet::util
