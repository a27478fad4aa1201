#include "common/binio.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/check.hpp"

namespace airch {
namespace {

// Streams are read/written through a small stack scratch for multi-byte
// copies; scalar put/get paths encode through explicit shifts so the file
// format is little-endian regardless of host order.
constexpr std::size_t kCopyChunk = 1 << 16;
constexpr std::size_t kFloatsPerChunk = kCopyChunk / 4;

}  // namespace

BinWriter::BinWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    throw std::runtime_error("BinWriter: cannot open for writing: " + path);
  }
}

BinWriter::~BinWriter() {
  // A writer abandoned by an in-flight exception must not mask it; only
  // verify the stream when unwinding is not already in progress.
  if (std::uncaught_exceptions() == 0) {
    finish();
  }
}

void BinWriter::put_u32(std::uint32_t v) {
  unsigned char b[4];
  b[0] = static_cast<unsigned char>(v & 0xFFu);
  b[1] = static_cast<unsigned char>((v >> 8) & 0xFFu);
  b[2] = static_cast<unsigned char>((v >> 16) & 0xFFu);
  b[3] = static_cast<unsigned char>((v >> 24) & 0xFFu);
  put_bytes(b, 4);
}

void BinWriter::put_u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
  }
  put_bytes(b, 8);
}

void BinWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void BinWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  sum_.update(p, n);
  out_.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void BinWriter::put_f32s(const float* data, std::size_t n) {
  unsigned char chunk[kCopyChunk];
  while (n > 0) {
    const std::size_t step = std::min(n, kFloatsPerChunk);
    for (std::size_t i = 0; i < step; ++i) {
      const auto bits = std::bit_cast<std::uint32_t>(data[i]);
      for (int b = 0; b < 4; ++b) {
        chunk[4 * i + static_cast<std::size_t>(b)] =
            static_cast<unsigned char>((bits >> (8 * b)) & 0xFFu);
      }
    }
    put_bytes(chunk, 4 * step);
    data += step;
    n -= step;
  }
}

void BinWriter::put_trailer_checksum() {
  // The digest is captured before the write so the trailer is not folded
  // into itself; readers compare against the digest over header+payload.
  const std::uint64_t digest = sum_.digest();
  put_u64(digest);
}

void BinWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  out_.flush();
  AIRCH_CHECK(out_.good(), "BinWriter: write failed (disk full?): " + path_);
  out_.close();
}

BinReader::BinReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) {
    throw std::runtime_error("BinReader: cannot open for reading: " + path);
  }
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  AIRCH_CHECK(end >= 0, "BinReader: cannot determine size of " + path);
  size_ = static_cast<std::uint64_t>(end);
  in_.seekg(0, std::ios::beg);
}

std::uint32_t BinReader::get_u32() {
  unsigned char b[4];
  get_bytes(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  }
  return v;
}

std::uint64_t BinReader::get_u64() {
  unsigned char b[8];
  get_bytes(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

double BinReader::get_f64() { return std::bit_cast<double>(get_u64()); }

void BinReader::get_bytes(void* out, std::size_t n) {
  AIRCH_CHECK(n <= remaining(), "BinReader: truncated file (short read) in " + path_);
  in_.read(static_cast<char*>(out), static_cast<std::streamsize>(n));
  AIRCH_CHECK(in_.gcount() == static_cast<std::streamsize>(n),
              "BinReader: read failed in " + path_);
  sum_.update(static_cast<const unsigned char*>(out), n);
  pos_ += n;
}

void BinReader::get_f32s(float* out, std::size_t n) {
  AIRCH_CHECK(n <= remaining() / 4, "BinReader: truncated file (short read) in " + path_);
  unsigned char chunk[kCopyChunk];
  while (n > 0) {
    const std::size_t step = std::min(n, kFloatsPerChunk);
    get_bytes(chunk, 4 * step);
    for (std::size_t i = 0; i < step; ++i) {
      std::uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<std::uint32_t>(chunk[4 * i + static_cast<std::size_t>(b)]) << (8 * b);
      }
      out[i] = std::bit_cast<float>(bits);
    }
    out += step;
    n -= step;
  }
}

void BinReader::skip_bytes(std::uint64_t n) {
  unsigned char scratch[kCopyChunk];
  while (n > 0) {
    const std::size_t step = n < kCopyChunk ? static_cast<std::size_t>(n) : kCopyChunk;
    get_bytes(scratch, step);
    n -= step;
  }
}

void BinReader::verify_trailer_checksum() {
  const std::uint64_t expected = sum_.digest();
  const std::uint64_t stored = get_u64();
  AIRCH_CHECK(stored == expected, "BinReader: checksum mismatch (corrupt file): " + path_);
}

void BinReader::seek(std::uint64_t pos) {
  AIRCH_CHECK(pos <= size_, "BinReader: seek past end of " + path_);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(pos), std::ios::beg);
  AIRCH_CHECK(in_.good(), "BinReader: seek failed in " + path_);
  pos_ = pos;
  sum_ = ByteChecksum();
}

}  // namespace airch
