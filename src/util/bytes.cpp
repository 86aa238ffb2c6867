#include "src/util/bytes.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace pdet::util {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

// The CRC register `c` (pre- and post-inversion excluded) after `data`, one
// byte at a time.
std::uint32_t table_update(std::uint32_t c,
                           std::span<const std::uint8_t> data) {
  for (const std::uint8_t b : data) {
    c = kCrcTable[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#define PDET_SIMD_KERNEL_FILE "src/util/crc_kernels.inc"
#include "src/util/simd_clone.inc"

}  // namespace

const simd::Kernels<CrcKernels>& crc_kernels() {
  static const simd::Kernels<CrcKernels> table{
      {crc32_base},
#ifdef PDET_SIMD_AVX2_CLONE
      {crc32_avx2},
#else
      {crc32_base},
#endif
  };
  return table;
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return crc_kernels().active().crc32(data, seed);
}

void ByteWriter::u8(std::uint8_t v) { out_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v & 0xFFu));
  out_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFFu));
  out_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFFu));
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  out_.insert(out_.end(), p, p + s.size());
}

void ByteWriter::f32_array(std::span<const float> values) {
  if constexpr (kLittleEndianHost) {
    const std::size_t at = out_.size();
    out_.resize(at + values.size() * sizeof(float));
    if (!values.empty()) {
      std::memcpy(out_.data() + at, values.data(),
                  values.size() * sizeof(float));
    }
  } else {
    for (const float v : values) f32(v);
  }
}

void ByteWriter::patch_u32(std::size_t at, std::uint32_t v) {
  out_[at] = static_cast<std::uint8_t>(v & 0xFFu);
  out_[at + 1] = static_cast<std::uint8_t>((v >> 8) & 0xFFu);
  out_[at + 2] = static_cast<std::uint8_t>((v >> 16) & 0xFFu);
  out_[at + 3] = static_cast<std::uint8_t>(v >> 24);
}

bool ByteReader::take(std::size_t n) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  pos_ += n;
  return true;
}

std::uint8_t ByteReader::u8() {
  const std::size_t at = pos_;
  if (!take(1)) return 0;
  return data_[at];
}

std::uint16_t ByteReader::u16() {
  const std::size_t at = pos_;
  if (!take(2)) return 0;
  return static_cast<std::uint16_t>(data_[at] |
                                    (static_cast<std::uint16_t>(data_[at + 1])
                                     << 8));
}

std::uint32_t ByteReader::u32() {
  const std::size_t at = pos_;
  if (!take(4)) return 0;
  return static_cast<std::uint32_t>(data_[at]) |
         (static_cast<std::uint32_t>(data_[at + 1]) << 8) |
         (static_cast<std::uint32_t>(data_[at + 2]) << 16) |
         (static_cast<std::uint32_t>(data_[at + 3]) << 24);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

float ByteReader::f32() { return std::bit_cast<float>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

bool ByteReader::skip(std::size_t n) { return take(n); }

bool ByteReader::bytes(std::span<std::uint8_t> dst) {
  const std::size_t at = pos_;
  if (!take(dst.size())) return false;
  if (!dst.empty()) std::memcpy(dst.data(), data_.data() + at, dst.size());
  return true;
}

bool ByteReader::str(std::string& out, std::size_t max_len) {
  const std::uint32_t len = u32();
  if (failed_ || len > max_len) {
    failed_ = true;
    return false;
  }
  const std::size_t at = pos_;
  if (!take(len)) return false;
  out.assign(reinterpret_cast<const char*>(data_.data() + at), len);
  return true;
}

bool ByteReader::f32_array(std::span<float> dst) {
  const std::size_t at = pos_;
  if (!take(dst.size() * sizeof(float))) return false;
  if constexpr (kLittleEndianHost) {
    if (!dst.empty()) {
      std::memcpy(dst.data(), data_.data() + at, dst.size() * sizeof(float));
    }
  } else {
    for (std::size_t i = 0; i < dst.size(); ++i) {
      const std::uint8_t* p = data_.data() + at + i * 4;
      const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                              (static_cast<std::uint32_t>(p[1]) << 8) |
                              (static_cast<std::uint32_t>(p[2]) << 16) |
                              (static_cast<std::uint32_t>(p[3]) << 24);
      dst[i] = std::bit_cast<float>(v);
    }
  }
  return true;
}

}  // namespace pdet::util
