#include "ckpt/io.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace crowdlearn::ckpt {

const char* ckpt_errc_name(CkptErrc code) {
  switch (code) {
    case CkptErrc::kIo: return "ckpt io error";
    case CkptErrc::kBadMagic: return "ckpt bad magic";
    case CkptErrc::kBadVersion: return "ckpt bad version";
    case CkptErrc::kTruncated: return "ckpt truncated";
    case CkptErrc::kCrcMismatch: return "ckpt crc mismatch";
    case CkptErrc::kMalformed: return "ckpt malformed";
    case CkptErrc::kConfigMismatch: return "ckpt config mismatch";
  }
  return "ckpt unknown error";
}

namespace {

// Slicing-by-8 tables: table[0] is the classic bytewise table, and
// table[k][i] is the CRC of byte i followed by k zero bytes, so one lookup per
// byte of an 8-byte block folds the whole block at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}

void append_le(std::string& out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

std::uint64_t parse_le(const char* p, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  return v;
}

// Eight-byte elements (double / u64) as consecutive little-endian words: one
// memcpy where the host is little-endian, the portable byte loop elsewhere.
// The bytes are the same either way.
template <typename T>
void append_bulk(std::string& out, const std::vector<T>& v) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * 8);
  } else {
    for (const T& x : v) append_le(out, std::bit_cast<std::uint64_t>(x), 8);
  }
}

template <typename T>
void parse_bulk(const char* p, std::vector<T>& v) {
  static_assert(sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    if (!v.empty()) std::memcpy(v.data(), p, v.size() * 8);
  } else {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = std::bit_cast<T>(parse_le(p + 8 * i, 8));
  }
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables t = make_crc_tables();
  const auto* p = static_cast<const char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    const auto lo = static_cast<std::uint32_t>(c ^ parse_le(p, 4));
    const auto hi = static_cast<std::uint32_t>(parse_le(p + 4, 4));
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size)
    c = t[0][(c ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Writer

void Writer::u8(std::uint8_t v) { payload_.push_back(static_cast<char>(v)); }
void Writer::u32(std::uint32_t v) { append_le(payload_, v, 4); }
void Writer::u64(std::uint64_t v) { append_le(payload_, v, 8); }
void Writer::i64(std::int64_t v) { append_le(payload_, static_cast<std::uint64_t>(v), 8); }
void Writer::f64(double v) { append_le(payload_, std::bit_cast<std::uint64_t>(v), 8); }

void Writer::str(const std::string& s) {
  u64(s.size());
  payload_.append(s);
}

void Writer::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  append_bulk(payload_, v);
}

void Writer::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  append_bulk(payload_, v);
}

void Writer::vec_sizes(const std::vector<std::size_t>& v) {
  u64(v.size());
  for (std::size_t x : v) u64(x);
}

void Writer::begin_section(const char tag[4]) { payload_.append(tag, 4); }

std::string file_image(const Writer& w) {
  std::string image(kMagic, sizeof(kMagic));
  append_le(image, kFormatVersion, 4);
  append_le(image, w.payload().size(), 8);
  append_le(image, crc32(w.payload().data(), w.payload().size()), 4);
  image.append(w.payload());
  return image;
}

void Writer::write_file(const std::string& path) const {
  atomic_write_file(file_image(*this), path);
}

const char* write_point_name(WritePoint point) {
  switch (point) {
    case WritePoint::kPreTemp: return "pre-temp";
    case WritePoint::kMidWrite: return "mid-write";
    case WritePoint::kPreRename: return "pre-rename";
    case WritePoint::kPostRename: return "post-rename";
  }
  return "unknown";
}

void atomic_write_file(const std::string& image, const std::string& path,
                       const WriteHooks* hooks) {
  const std::string tmp = path + ".tmp";
  auto fire = [&](WritePoint p) {
    if (hooks != nullptr && hooks->at) hooks->at(p);
  };
  fire(WritePoint::kPreTemp);
  bool tmp_created = false;
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw CkptError(CkptErrc::kIo, "cannot open " + tmp + " for writing");
    tmp_created = true;
    // Two half-writes bracket the kMidWrite point so an injected fault (or
    // crash) there leaves a genuinely torn TEMP file — the target is only
    // ever replaced by the atomic rename below.
    const std::size_t half = image.size() / 2;
    os.write(image.data(), static_cast<std::streamsize>(half));
    if (!os) throw CkptError(CkptErrc::kIo, "write failure on " + tmp);
    fire(WritePoint::kMidWrite);
    os.write(image.data() + half, static_cast<std::streamsize>(image.size() - half));
    os.flush();
    if (!os) throw CkptError(CkptErrc::kIo, "write failure on " + tmp);
    os.close();
    if (os.fail()) throw CkptError(CkptErrc::kIo, "close failure on " + tmp);
    fire(WritePoint::kPreRename);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw CkptError(CkptErrc::kIo, "cannot rename " + tmp + " onto " + path);
  } catch (...) {
    // In-process failure: drop the temp so it cannot shadow anything. A hard
    // crash skips this — the stale .tmp is swept by GenerationRing::prune().
    if (tmp_created) std::remove(tmp.c_str());
    throw;
  }
  fire(WritePoint::kPostRename);
}

// ---------------------------------------------------------------------------
// Reader

const char* Reader::take(std::size_t n) {
  if (payload_.size() - offset_ < n)
    throw CkptError(CkptErrc::kMalformed, "payload overrun");
  const char* p = payload_.data() + offset_;
  offset_ += n;
  return p;
}

std::uint8_t Reader::u8() { return static_cast<std::uint8_t>(*take(1)); }
std::uint32_t Reader::u32() { return static_cast<std::uint32_t>(parse_le(take(4), 4)); }
std::uint64_t Reader::u64() { return parse_le(take(8), 8); }
std::int64_t Reader::i64() { return static_cast<std::int64_t>(parse_le(take(8), 8)); }
double Reader::f64() { return std::bit_cast<double>(parse_le(take(8), 8)); }

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) throw CkptError(CkptErrc::kMalformed, "string length overrun");
  const char* p = take(static_cast<std::size_t>(n));
  return std::string(p, static_cast<std::size_t>(n));
}

template <typename T>
std::vector<T> Reader::take_bulk() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) throw CkptError(CkptErrc::kMalformed, "vector length overrun");
  std::vector<T> v(static_cast<std::size_t>(n));
  parse_bulk(take(v.size() * 8), v);
  return v;
}

std::vector<double> Reader::vec_f64() { return take_bulk<double>(); }
std::vector<std::uint64_t> Reader::vec_u64() { return take_bulk<std::uint64_t>(); }

std::vector<std::size_t> Reader::vec_sizes() {
  const std::vector<std::uint64_t> raw = vec_u64();
  return std::vector<std::size_t>(raw.begin(), raw.end());
}

void Reader::expect_section(const char tag[4]) {
  const char* p = take(4);
  if (std::memcmp(p, tag, 4) != 0)
    throw CkptError(CkptErrc::kMalformed,
                    "expected section '" + std::string(tag, 4) + "', found '" +
                        std::string(p, 4) + "'");
}

void Reader::expect_end() const {
  if (!at_end()) throw CkptError(CkptErrc::kMalformed, "trailing payload bytes");
}

// ---------------------------------------------------------------------------
// Container validation

std::string validate_image(const std::string& image) {
  if (image.size() < kHeaderSize)
    throw CkptError(CkptErrc::kTruncated, "file shorter than the header");
  if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0)
    throw CkptError(CkptErrc::kBadMagic, "not a CrowdLearn checkpoint");
  const auto version = static_cast<std::uint32_t>(parse_le(image.data() + 8, 4));
  if (version != kFormatVersion)
    throw CkptError(CkptErrc::kBadVersion,
                    "container version " + std::to_string(version) + ", expected " +
                        std::to_string(kFormatVersion));
  const std::uint64_t payload_size = parse_le(image.data() + 12, 8);
  const auto expected_crc = static_cast<std::uint32_t>(parse_le(image.data() + 20, 4));
  if (image.size() - kHeaderSize < payload_size)
    throw CkptError(CkptErrc::kTruncated, "file ends before the declared payload");
  if (image.size() - kHeaderSize > payload_size)
    throw CkptError(CkptErrc::kMalformed, "trailing bytes after the declared payload");
  std::string payload = image.substr(kHeaderSize);
  if (crc32(payload.data(), payload.size()) != expected_crc)
    throw CkptError(CkptErrc::kCrcMismatch, "payload does not match the header CRC");
  return payload;
}

std::string read_file(const std::string& path) {
  return validate_image(read_image(path));
}

std::string read_image(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw CkptError(CkptErrc::kIo, "cannot open " + path);
  const std::streamsize size = is.tellg();
  if (size < 0) throw CkptError(CkptErrc::kIo, "cannot size " + path);
  std::string image(static_cast<std::size_t>(size), '\0');
  is.seekg(0);
  if (!is.read(image.data(), size)) throw CkptError(CkptErrc::kIo, "read failure on " + path);
  validate_image(image);
  return image;
}

}  // namespace crowdlearn::ckpt
