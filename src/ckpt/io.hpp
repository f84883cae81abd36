#pragma once
// Versioned, CRC-guarded binary checkpoint container (docs/CHECKPOINTING.md).
//
// Layout of a checkpoint file:
//   [0..7]   magic "CROWDCKP"
//   [8..11]  format version (u32, little-endian)
//   [12..19] payload size in bytes (u64, little-endian)
//   [20..23] CRC-32 (IEEE 802.3) of the payload bytes (u32, little-endian)
//   [24.. ]  payload
//
// The payload is a flat stream of little-endian primitives produced by
// Writer and consumed by Reader. Doubles travel as their raw 64-bit IEEE-754
// pattern, so a save/load round trip is bit-exact. Modules frame their state
// with four-character section tags (Writer::begin_section / Reader::
// expect_section) so a reader that drifts out of sync fails loudly with
// CkptErrc::kMalformed instead of silently misinterpreting bytes.
//
// Every failure mode is a typed CkptError:
//   kIo             file cannot be opened / read / written
//   kBadMagic       the first 8 bytes are not the checkpoint magic
//   kBadVersion     container version is not kFormatVersion
//   kTruncated      file ends before the header or the declared payload
//   kCrcMismatch    payload bytes do not match the header CRC (bit flips)
//   kMalformed      container is intact but the payload does not parse
//   kConfigMismatch checkpoint was produced under an incompatible config
//
// read_file() validates the ENTIRE container (magic, version, size, CRC)
// before returning, so callers never start applying a checkpoint that could
// fail container-level validation halfway through.

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace crowdlearn::ckpt {

inline constexpr char kMagic[8] = {'C', 'R', 'O', 'W', 'D', 'C', 'K', 'P'};
/// Version 2 stores expert networks as raw layer records (nn/serialize.hpp);
/// version 3 drops the split-engine byte, max_bins and bin boundaries from
/// the GBDT forest section (GBT3). Any older image (version 1: decimal-text
/// networks; version 2: GBT2 forests) fails with kBadVersion.
inline constexpr std::uint32_t kFormatVersion = 3;
inline constexpr std::size_t kHeaderSize = 24;

/// Typed failure classes for checkpoint I/O.
enum class CkptErrc {
  kIo,
  kBadMagic,
  kBadVersion,
  kTruncated,
  kCrcMismatch,
  kMalformed,
  kConfigMismatch,
};

const char* ckpt_errc_name(CkptErrc code);

class CkptError : public std::runtime_error {
 public:
  CkptError(CkptErrc code, const std::string& what)
      : std::runtime_error(std::string(ckpt_errc_name(code)) + ": " + what),
        code_(code) {}

  CkptErrc code() const { return code_; }

 private:
  CkptErrc code_;
};

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) over a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

/// Appends little-endian primitives to an in-memory payload buffer.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< raw IEEE-754 bit pattern; bit-exact round trip
  void str(const std::string& s);
  void vec_f64(const std::vector<double>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);
  /// Size-prefixed convenience for size_t vectors (stored as u64).
  void vec_sizes(const std::vector<std::size_t>& v);

  /// Frame the start of a module section with a four-character tag.
  void begin_section(const char tag[4]);

  const std::string& payload() const { return payload_; }

  /// Write header + payload to `path` through atomic_write_file (temp +
  /// flush + rename), so a crash mid-write can never leave a torn file
  /// shadowing a previous good checkpoint. Throws CkptError(kIo) on failure.
  void write_file(const std::string& path) const;

 private:
  std::string payload_;
};

/// Bounds-checked little-endian reads over a validated payload. Running past
/// the end of the payload — or off a section tag — throws
/// CkptError(kMalformed): the container already passed the CRC, so any parse
/// failure means the payload content itself is inconsistent.
class Reader {
 public:
  explicit Reader(std::string payload) : payload_(std::move(payload)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<double> vec_f64();
  std::vector<std::uint64_t> vec_u64();
  std::vector<std::size_t> vec_sizes();

  /// Consume a section tag; throws kMalformed unless it matches `tag`.
  void expect_section(const char tag[4]);

  std::size_t remaining() const { return payload_.size() - offset_; }
  bool at_end() const { return offset_ == payload_.size(); }
  /// Throws kMalformed unless the payload was consumed exactly.
  void expect_end() const;

 private:
  std::string payload_;
  std::size_t offset_ = 0;

  const char* take(std::size_t n);  ///< advance; throws kMalformed on overrun
  template <typename T>
  std::vector<T> take_bulk();  ///< u64 count, then that many 8-byte elements
};

/// Read `path`, validate magic/version/declared size/CRC, and return the
/// payload. Throws the corresponding typed CkptError; never returns a
/// payload that failed container validation.
std::string read_file(const std::string& path);

/// Read `path` raw and validate it, but return the full file image
/// (header + payload) instead of the payload. Same typed failures as
/// read_file; used by the generation ring, whose callers re-validate.
std::string read_image(const std::string& path);

/// Offset classes inside one atomic checkpoint write, in order. A fault
/// (exception or process death) at each class leaves a characteristic
/// on-disk state, all of which recovery must survive (docs/RECOVERY.md):
///   kPreTemp     nothing written yet — previous target intact
///   kMidWrite    torn temp file — previous target intact
///   kPreRename   complete temp, not yet renamed — previous target intact
///   kPostRename  rename done — NEW target fully in place
enum class WritePoint { kPreTemp, kMidWrite, kPreRename, kPostRename };

const char* write_point_name(WritePoint point);

/// Optional instrumentation of atomic_write_file, called at each offset
/// class. The callback may throw (the write is abandoned, the temp file is
/// cleaned up in-process, and the target is left as it was) or terminate the
/// process (emulating a crash: the temp may be left torn on disk, but the
/// target is never half-written). Used by runtime::FaultInjector.
struct WriteHooks {
  std::function<void(WritePoint)> at;
};

/// Crash-safe file update: write `image` to `path + ".tmp"`, flush, then
/// atomically rename over `path`. A crash or I/O failure at any point leaves
/// either the previous file content or the complete new content — never a
/// torn target. Throws CkptError(kIo) on any filesystem failure (open,
/// short write, flush, rename); on an in-process failure the temp file is
/// removed before the error propagates.
void atomic_write_file(const std::string& image, const std::string& path,
                       const WriteHooks* hooks = nullptr);

/// Validate an in-memory file image (same checks as read_file).
std::string validate_image(const std::string& image);

/// Build the full file image (header + payload) for a writer's payload.
std::string file_image(const Writer& w);

}  // namespace crowdlearn::ckpt
