// Container-level tests for the checkpoint format (src/ckpt/io.hpp): primitive
// round trips, section framing, and the corruption battery — truncations at
// every header boundary, bit flips, wrong magic/version, malformed payloads.
// Every failure mode must surface as a typed ckpt::CkptError; no input may
// crash the reader or leave a partially parsed result behind.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>

#include "ckpt/generations.hpp"
#include "ckpt/io.hpp"
#include "ckpt/state.hpp"
#include "experts/ddm.hpp"
#include "gbdt/gbdt.hpp"
#include "gbdt/hist.hpp"
#include "util/rng.hpp"

namespace crowdlearn::ckpt {
namespace {

/// RAII temp file path (removed on destruction).
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

[[maybe_unused]] std::string write_temp(const TempFile& f, const std::string& bytes) {
  std::ofstream os(f.path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();
  return f.path;
}

CkptErrc code_of(const std::string& image) {
  try {
    validate_image(image);
  } catch (const CkptError& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected CkptError for image of " << image.size() << " bytes";
  return CkptErrc::kIo;
}

TEST(CkptWriterReader, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(255);
  w.u32(0xDEADBEEFu);
  w.u64(0xFFFFFFFFFFFFFFFFull);
  w.i64(-42);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(0.1);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("");
  w.str(std::string("nul\0byte", 8));
  w.vec_f64({});
  w.vec_f64({1.5, -2.5, 3.25});
  w.vec_u64({7, 8, 9});
  w.vec_sizes({0, 1, 2, 3});

  Reader r(w.payload());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 255u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not just value
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("nul\0byte", 8));
  EXPECT_TRUE(r.vec_f64().empty());
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{1.5, -2.5, 3.25}));
  EXPECT_EQ(r.vec_u64(), (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(r.vec_sizes(), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(CkptWriterReader, NanBitPatternSurvives) {
  // A save/load round trip must be bit-exact even for NaN payloads (e.g. a
  // quarantined expert's poisoned statistic).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Writer w;
  w.f64(nan);
  Reader r(w.payload());
  const double back = r.f64();
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, &nan, sizeof a);
  std::memcpy(&b, &back, sizeof b);
  EXPECT_EQ(a, b);
}

TEST(CkptWriterReader, SectionFraming) {
  Writer w;
  w.begin_section("ABC1");
  w.u64(7);
  w.begin_section("DEF2");

  Reader r(w.payload());
  EXPECT_NO_THROW(r.expect_section("ABC1"));
  EXPECT_EQ(r.u64(), 7u);
  EXPECT_THROW(r.expect_section("ZZZ9"), CkptError);
}

TEST(CkptWriterReader, WrongSectionTagIsMalformedAndNamed) {
  Writer w;
  w.begin_section("ABC1");
  Reader r(w.payload());
  try {
    r.expect_section("XYZ1");
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kMalformed);
    EXPECT_NE(std::string(e.what()).find("XYZ1"), std::string::npos);
  }
}

TEST(CkptWriterReader, OverrunReadsThrowMalformed) {
  Writer w;
  w.u32(5);
  Reader r(w.payload());
  EXPECT_THROW(r.u64(), CkptError);  // 4 bytes left, 8 requested

  Reader r2{std::string()};
  EXPECT_THROW(r2.u8(), CkptError);
  EXPECT_THROW(r2.str(), CkptError);
  EXPECT_THROW(r2.vec_f64(), CkptError);
}

TEST(CkptWriterReader, HugeDeclaredLengthsThrowInsteadOfAllocating) {
  // A length prefix near 2^64 must be rejected by the remaining-bytes guard,
  // not overflow the size computation and attempt a giant allocation.
  for (std::uint64_t n :
       {std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() / 8 + 1, std::uint64_t{1} << 61}) {
    Writer w;
    w.u64(n);
    Reader rf(w.payload());
    EXPECT_THROW(rf.vec_f64(), CkptError) << n;
    Reader ru(w.payload());
    EXPECT_THROW(ru.vec_u64(), CkptError) << n;
    Reader rs(w.payload());
    EXPECT_THROW(rs.str(), CkptError) << n;
  }
}

TEST(CkptWriterReader, TrailingBytesFailExpectEnd) {
  Writer w;
  w.u64(1);
  w.u8(0);
  Reader r(w.payload());
  r.u64();
  EXPECT_FALSE(r.at_end());
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.expect_end(), CkptError);
}

// ---------------------------------------------------------------------------
// Container validation
// ---------------------------------------------------------------------------

std::string sample_image() {
  Writer w;
  w.begin_section("TST1");
  w.u64(123);
  w.vec_f64({1.0, 2.0, 3.0});
  w.str("hello");
  return file_image(w);
}

TEST(CkptContainer, FileRoundTrip) {
  Writer w;
  w.begin_section("TST1");
  w.u64(99);
  TempFile tmp("ckpt_io_roundtrip.bin");
  w.write_file(tmp.path);

  const std::string payload = read_file(tmp.path);
  EXPECT_EQ(payload, w.payload());
  Reader r(payload);
  r.expect_section("TST1");
  EXPECT_EQ(r.u64(), 99u);
  r.expect_end();
}

TEST(CkptContainer, MissingFileIsIoError) {
  try {
    read_file(::testing::TempDir() + "/ckpt_definitely_missing.bin");
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
}

TEST(CkptContainer, UnwritablePathIsIoError) {
  Writer w;
  w.u8(1);
  try {
    w.write_file(::testing::TempDir() + "/no_such_dir_ckpt/x.bin");
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
}

// ---------------------------------------------------------------------------
// kIo battery: real filesystem failures through the atomic write path
// ---------------------------------------------------------------------------

TEST(CkptAtomicWrite, NonexistentParentDirIsIoErrorAndLeavesNoDebris) {
  const std::string target =
      ::testing::TempDir() + "/no_such_parent_ckpt/sub/gen.ckpt";
  try {
    atomic_write_file("payload", target);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
  EXPECT_FALSE(std::filesystem::exists(target));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
}

TEST(CkptAtomicWrite, ShortWriteFaultLeavesPreviousTargetValid) {
  // A simulated ENOSPC mid-write (the hook throws the same typed kIo error a
  // full disk would) must leave the previous checkpoint untouched and no temp
  // file behind — the whole point of temp+flush+rename.
  TempFile tmp("ckpt_short_write.bin");
  Writer w1;
  w1.begin_section("TST1");
  w1.u64(1);
  w1.write_file(tmp.path);
  const std::string before = read_file(tmp.path);

  Writer w2;
  w2.begin_section("TST1");
  w2.u64(2);
  WriteHooks hooks;
  hooks.at = [](WritePoint point) {
    if (point == WritePoint::kMidWrite)
      throw CkptError(CkptErrc::kIo, "simulated short write (disk full)");
  };
  try {
    atomic_write_file(file_image(w2), tmp.path, &hooks);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
  EXPECT_EQ(read_file(tmp.path), before);
  EXPECT_FALSE(std::filesystem::exists(tmp.path + ".tmp"));
}

TEST(CkptAtomicWrite, RenameTargetCollisionIsIoErrorAndCleansTemp) {
  // A directory squatting on the target path makes std::rename fail after the
  // temp was fully written: the error must be typed kIo and the temp removed.
  const std::string target = ::testing::TempDir() + "/ckpt_rename_collision";
  std::filesystem::remove_all(target);
  std::filesystem::create_directory(target);
  try {
    atomic_write_file(sample_image(), target);
    FAIL() << "expected CkptError";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kIo);
  }
  EXPECT_TRUE(std::filesystem::is_directory(target));
  EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  std::filesystem::remove_all(target);
}

TEST(CkptContainer, ValidImagePasses) {
  const std::string image = sample_image();
  Reader r(validate_image(image));
  r.expect_section("TST1");
  EXPECT_EQ(r.u64(), 123u);
}

TEST(CkptContainer, TruncationAtEveryLengthIsTyped) {
  // Chop the file at every possible length. Every prefix must be rejected
  // with a typed error — kTruncated while the container is short, and never
  // a crash or an accepted payload.
  const std::string image = sample_image();
  for (std::size_t len = 0; len < image.size(); ++len) {
    const std::string prefix = image.substr(0, len);
    const CkptErrc code = code_of(prefix);
    EXPECT_EQ(code, CkptErrc::kTruncated) << "prefix length " << len;
  }
}

TEST(CkptContainer, EveryByteFlipIsTyped) {
  // Flip every bit of every byte in turn. The container must reject each
  // mutant with a typed error: payload flips and CRC-field flips surface as
  // kCrcMismatch; header flips as the matching magic/version/size error.
  const std::string image = sample_image();
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = image;
      mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << bit));
      const CkptErrc code = code_of(mutant);
      if (pos < 8) {
        EXPECT_EQ(code, CkptErrc::kBadMagic) << "byte " << pos << " bit " << bit;
      } else if (pos < 12) {
        EXPECT_EQ(code, CkptErrc::kBadVersion) << "byte " << pos << " bit " << bit;
      } else if (pos < 20) {
        // Size-field flips either declare more bytes than present
        // (kTruncated) or fewer (trailing garbage -> kMalformed).
        EXPECT_TRUE(code == CkptErrc::kTruncated || code == CkptErrc::kMalformed)
            << "byte " << pos << " bit " << bit;
      } else {
        EXPECT_EQ(code, CkptErrc::kCrcMismatch) << "byte " << pos << " bit " << bit;
      }
    }
  }
}

TEST(CkptContainer, TrailingGarbageIsMalformed) {
  std::string image = sample_image();
  image += "extra";
  EXPECT_EQ(code_of(image), CkptErrc::kMalformed);
}

TEST(CkptContainer, WrongVersionIsTyped) {
  std::string image = sample_image();
  image[8] = static_cast<char>(kFormatVersion + 1);  // version u32 little-endian at offset 8
  EXPECT_EQ(code_of(image), CkptErrc::kBadVersion);
}

TEST(CkptContainer, RandomFuzzNeverCrashes) {
  // Deterministic fuzz: random byte strings and randomly mutated valid
  // images. Every input must either parse or throw a typed CkptError.
  const std::string image = sample_image();
  Rng rng(20240805);
  for (int iter = 0; iter < 500; ++iter) {
    std::string input;
    if (iter % 2 == 0) {
      input.resize(rng.index(96));
      for (char& c : input) c = static_cast<char>(rng.index(256));
    } else {
      input = image;
      const std::size_t mutations = 1 + rng.index(8);
      for (std::size_t m = 0; m < mutations; ++m)
        input[rng.index(input.size())] = static_cast<char>(rng.index(256));
      if (rng.bernoulli(0.3)) input.resize(rng.index(input.size() + 1));
    }
    try {
      const std::string payload = validate_image(input);
      // Parsed containers can still be malformed at the payload level; a
      // Reader must fail typed, not crash.
      Reader r(payload);
      r.expect_section("TST1");
      r.u64();
      r.vec_f64();
      r.str();
      r.expect_end();
    } catch (const CkptError&) {
      // typed rejection is the expected outcome for almost all mutants
    }
  }
}

TEST(CkptContainer, Crc32MatchesKnownVectors) {
  // IEEE 802.3 reference vectors ("check" values from the CRC catalogue).
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0x00000000u);
  EXPECT_EQ(crc32("a", 1), 0xE8B7BE43u);
}

/// The plain one-byte-at-a-time CRC-32 loop, kept here as the reference the
/// library's sliced implementation must match.
std::uint32_t crc32_bytewise(const std::string& bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(CkptContainer, Crc32MatchesBytewiseLoopOnRandomInputs) {
  // Random lengths cover every tail length after the 8-byte blocks, and
  // random offsets cover unaligned starts.
  Rng rng(20261019);
  std::string buffer(4096 + 16, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.index(256));
  for (int iter = 0; iter < 400; ++iter) {
    const std::size_t offset = rng.index(16);
    const std::size_t len = iter < 64 ? static_cast<std::size_t>(iter) : rng.index(4096);
    const std::string bytes = buffer.substr(offset, len);
    EXPECT_EQ(crc32(buffer.data() + offset, len), crc32_bytewise(bytes))
        << "offset " << offset << " length " << len;
  }
}

TEST(CkptContainer, ErrcNamesAreStable) {
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kIo), "ckpt io error");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kBadMagic), "ckpt bad magic");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kBadVersion), "ckpt bad version");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kTruncated), "ckpt truncated");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kCrcMismatch), "ckpt crc mismatch");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kMalformed), "ckpt malformed");
  EXPECT_STREQ(ckpt_errc_name(CkptErrc::kConfigMismatch), "ckpt config mismatch");
}

// ---------------------------------------------------------------------------
// Shared state helpers (ckpt/state.hpp)
// ---------------------------------------------------------------------------

TEST(CkptState, RngStreamResumesExactly) {
  Rng original(42);
  for (int i = 0; i < 37; ++i) original.uniform(0, 1);  // advance mid-stream

  Writer w;
  save_rng(w, original);
  Rng restored(0);
  Reader r(w.payload());
  load_rng(r, restored);

  EXPECT_EQ(restored.seed(), original.seed());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.uniform(0, 1), restored.uniform(0, 1));  // exact
    EXPECT_EQ(original.index(1000), restored.index(1000));
  }
}

TEST(CkptState, CorruptRngStateIsMalformedAndLeavesTargetUntouched) {
  Writer w;
  save_rng(w, Rng(7));
  std::string payload = w.payload();
  // Corrupt the serialized engine text (past the section tag + length).
  payload[payload.size() / 2] = '!';
  payload[payload.size() / 2 + 1] = '?';

  Rng target(99);
  const std::string before = target.serialize();
  Reader r(std::move(payload));
  try {
    load_rng(r, target);
    // Some single-character corruptions still parse as digits; only a typed
    // failure is required to leave the target untouched.
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), CkptErrc::kMalformed);
    EXPECT_EQ(target.serialize(), before);
  }
}

TEST(CkptState, TableRoundTripAndDimChecks) {
  const std::vector<std::vector<double>> table{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Writer w;
  save_f64_table(w, table);
  {
    Reader r(w.payload());
    std::vector<std::vector<double>> back;
    load_f64_table(r, back, 3, 2);
    EXPECT_EQ(back, table);
  }
  {
    Reader r(w.payload());
    std::vector<std::vector<double>> back;
    EXPECT_THROW(load_f64_table(r, back, 2, 2), CkptError);  // row count mismatch
  }
  {
    Reader r(w.payload());
    std::vector<std::vector<double>> back;
    EXPECT_THROW(load_f64_table(r, back, 3, 3), CkptError);  // column count mismatch
  }
}

// ---------------------------------------------------------------------------
// Expert (NDA1) section battery: a trained network's layer records
// ---------------------------------------------------------------------------

/// A DDM small enough that every byte of its section can be mutated in turn,
/// trained once per process.
const dataset::Dataset& tiny_dataset() {
  static const dataset::Dataset data = [] {
    dataset::DatasetConfig cfg;
    cfg.total_images = 40;
    cfg.train_images = 30;
    return dataset::generate_dataset(cfg);
  }();
  return data;
}

experts::DdmClassifier tiny_trained_ddm() {
  experts::DdmConfig cfg;
  cfg.conv1_channels = 2;
  cfg.conv2_channels = 2;
  cfg.hidden = 4;
  cfg.train.epochs = 1;
  experts::DdmClassifier ddm(cfg);
  Rng rng(77);
  ddm.train(tiny_dataset(), tiny_dataset().train_indices, rng);
  return ddm;
}

/// Bit patterns of the expert's votes on two held-out images.
std::vector<std::uint64_t> vote_bits(experts::DdmClassifier& ddm) {
  std::vector<std::uint64_t> bits;
  for (std::size_t i = 0; i < 2; ++i)
    for (double p : ddm.predict_proba(tiny_dataset().image(tiny_dataset().test_indices[i])))
      bits.push_back(std::bit_cast<std::uint64_t>(p));
  return bits;
}

TEST(CkptExpertSection, TruncationAtEveryLengthIsMalformedAndLeavesExpertUntouched) {
  experts::DdmClassifier ddm = tiny_trained_ddm();
  const std::string payload = ddm.state_payload();
  const std::vector<std::uint64_t> votes = vote_bits(ddm);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    try {
      ddm.load_state_payload(payload.substr(0, len));
      ADD_FAILURE() << "expected CkptError at truncation length " << len;
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptErrc::kMalformed) << "length " << len;
    }
    ASSERT_TRUE(ddm.state_payload() == payload) << "length " << len;
  }
  EXPECT_EQ(vote_bits(ddm), votes);
}

TEST(CkptExpertSection, BitFlippedLayerRecordsAreTyped) {
  // Every flip inside the section lands behind the header CRC, so the
  // container rejects it before load_state runs.
  experts::DdmClassifier ddm = tiny_trained_ddm();
  Writer w;
  ddm.save_state(w);
  const std::string image = file_image(w);
  const std::vector<std::uint64_t> votes = vote_bits(ddm);
  for (std::size_t pos = kHeaderSize; pos < image.size(); ++pos) {
    std::string mutant = image;
    mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << (pos % 8)));
    try {
      ddm.load_state_payload(validate_image(mutant));
      ADD_FAILURE() << "expected CkptError at byte " << pos;
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptErrc::kCrcMismatch) << "byte " << pos;
    }
  }
  EXPECT_EQ(vote_bits(ddm), votes);
}

TEST(CkptExpertSection, FlipsBehindAValidCrcFailTypedOrRoundTripExactly) {
  // Bit rot a CRC cannot see (a buggy writer): flip one bit of every payload
  // byte and load it directly. A flip in a tag, a size or a flag must fail
  // typed and leave the expert as it was; a flip in a value (a weight, a
  // replay id) is a different valid state and must load exactly as written.
  experts::DdmClassifier ddm = tiny_trained_ddm();
  const std::string payload = ddm.state_payload();
  const std::vector<std::uint64_t> votes = vote_bits(ddm);
  std::size_t rejected = 0;
  for (std::size_t pos = 0; pos < payload.size(); ++pos) {
    std::string mutant = payload;
    mutant[pos] = static_cast<char>(mutant[pos] ^ (1 << (pos % 8)));
    try {
      ddm.load_state_payload(mutant);
    } catch (const CkptError& e) {
      ++rejected;
      EXPECT_EQ(e.code(), CkptErrc::kMalformed) << "byte " << pos;
      ASSERT_TRUE(ddm.state_payload() == payload) << "byte " << pos;
      continue;
    }
    ASSERT_TRUE(ddm.state_payload() == mutant) << "byte " << pos;
    ddm.load_state_payload(payload);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(vote_bits(ddm), votes);
}

TEST(CkptExpertSection, UnusableSectionsAreMalformedAndLeaveExpertUntouched) {
  experts::DdmClassifier ddm = tiny_trained_ddm();
  const std::string payload = ddm.state_payload();
  const std::vector<std::uint64_t> votes = vote_bits(ddm);
  auto expect_malformed = [&](const Writer& w) {
    try {
      ddm.load_state_payload(w.payload());
      ADD_FAILURE() << "expected CkptError";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptErrc::kMalformed) << e.what();
    }
    EXPECT_TRUE(ddm.state_payload() == payload);
  };
  {
    // A well-formed network the expert cannot use: DDM needs a conv layer
    // with a ReLU above it for Grad-CAM.
    Writer w;
    w.begin_section("NDA1");
    w.str(ddm.name());
    w.u8(1);
    w.u64(1);  // one Dense layer, no conv
    w.str("Dense");
    w.u64(2);
    w.u64(3);
    w.u64(2);
    w.u64(3);
    w.vec_f64(std::vector<double>(6, 0.0));
    w.u64(1);
    w.u64(3);
    w.vec_f64(std::vector<double>(3, 0.0));
    w.vec_sizes({});
    w.u64(8);
    expect_malformed(w);
  }
  {
    // A trained flag that is neither 0 nor 1, on an otherwise valid
    // untrained section.
    Writer w;
    w.begin_section("NDA1");
    w.str(ddm.name());
    w.u8(2);
    w.vec_sizes({});
    w.u64(8);
    expect_malformed(w);
  }
  EXPECT_EQ(vote_bits(ddm), votes);
}

TEST(CkptExpertSection, Version1ImageIsBadVersion) {
  experts::DdmClassifier ddm = tiny_trained_ddm();
  Writer w;
  ddm.save_state(w);
  const std::string image = file_image(w);
  for (std::uint32_t version = 1; version < kFormatVersion; ++version) {
    std::string old = image;
    old[8] = static_cast<char>(version);
    EXPECT_EQ(code_of(old), CkptErrc::kBadVersion) << "version " << version;
  }
}

// ---------------------------------------------------------------------------
// Forest (GBT3) section corruption battery
// ---------------------------------------------------------------------------

/// A small forest checkpoint: class count, shrinkage and trees, inside the
/// standard container.
std::string forest_image(gbdt::Gbdt& model) {
  Rng rng(41);
  std::vector<std::vector<double>> rows(60, std::vector<double>(4));
  for (auto& row : rows)
    for (double& v : row) v = rng.uniform(0, 1);
  std::vector<std::size_t> y(rows.size());
  for (auto& v : y) v = rng.index(3);
  gbdt::GbdtConfig cfg;
  cfg.num_rounds = 3;
  cfg.max_bins = 16;
  model.fit(gbdt::FeatureMatrix::from_rows(rows), y, 3, cfg);

  Writer w;
  model.save_state(w);
  return file_image(w);
}

TEST(CkptForestSection, TruncationAtEveryLengthIsTyped) {
  gbdt::Gbdt model;
  const std::string image = forest_image(model);
  for (std::size_t len = 0; len < image.size(); len += 3) {
    EXPECT_EQ(code_of(image.substr(0, len)), CkptErrc::kTruncated)
        << "prefix length " << len;
  }
}

TEST(CkptForestSection, BitFlippedForestBytesAreTyped) {
  // Any flip inside the serialized forest — class count, shrinkage, node
  // tables — lands in the payload region, so the CRC gate must reject it
  // before load_state ever runs.
  gbdt::Gbdt model;
  const std::string image = forest_image(model);
  for (std::size_t pos = 20; pos < image.size(); ++pos) {
    std::string mutant = image;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x40);
    EXPECT_EQ(code_of(mutant), CkptErrc::kCrcMismatch) << "byte " << pos;
  }
}

TEST(CkptForestSection, TruncatedForestPayloadIsMalformedAndLeavesModelUntouched) {
  // Structural damage BEHIND a valid CRC (an attacker or a buggy writer, not
  // bit rot): every truncation of the raw forest payload must surface as
  // kMalformed from load_state, and the target model must keep serving its
  // previous forest bit-for-bit.
  gbdt::Gbdt model;
  (void)forest_image(model);
  Writer w;
  model.save_state(w);
  const std::string payload = w.payload();

  Writer before;
  model.save_state(before);
  for (std::size_t len = 0; len < payload.size(); len += 17) {
    Reader r(payload.substr(0, len));
    try {
      model.load_state(r);
      ADD_FAILURE() << "expected CkptError at truncation length " << len;
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), CkptErrc::kMalformed) << "length " << len;
    }
  }
  Writer after;
  model.save_state(after);
  EXPECT_EQ(before.payload(), after.payload());
}

TEST(CkptGenerations, ConcurrentSiblingRingsNeverCrossContaminate) {
  // The multi-tenant eviction path (docs/TENANCY.md) pages tenants out
  // through sibling per-tenant ring directories, possibly from several
  // worker threads at once. Two rings hammered simultaneously must end with
  // each directory holding only its own tenant's generations, every
  // survivor validating to that tenant's payload, and no temp-file debris
  // left on either side.
  namespace fs = std::filesystem;
  const std::string root = ::testing::TempDir() + "/ckpt_sibling_rings";
  fs::remove_all(root);
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kSaves = 60;
  constexpr std::size_t kKeep = 3;

  auto image_for = [](std::size_t writer, std::uint64_t gen) {
    Writer w;
    w.begin_section("TST1");
    w.u64(writer);
    w.u64(gen);
    w.str(std::string(1024, static_cast<char>('A' + writer)));
    return file_image(w);
  };

  std::vector<std::thread> threads;
  for (std::size_t writer = 0; writer < kWriters; ++writer) {
    threads.emplace_back([&, writer] {
      GenerationRing ring({root + "/tenant" + std::to_string(writer), kKeep});
      for (std::uint64_t gen = 0; gen < kSaves; ++gen)
        ring.save(image_for(writer, gen), gen);
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t writer = 0; writer < kWriters; ++writer) {
    const std::string dir = root + "/tenant" + std::to_string(writer);
    // No torn-write debris and nothing but gen-*.ckpt files.
    std::size_t files = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      ++files;
      const std::string name = entry.path().filename().string();
      EXPECT_NE(entry.path().extension(), ".tmp") << name;
      EXPECT_EQ(name.rfind("gen-", 0), 0u) << name;
    }
    GenerationRing ring({dir, kKeep});
    const std::vector<std::uint64_t> gens = ring.generations();
    EXPECT_EQ(gens.size(), kKeep);
    EXPECT_EQ(files, kKeep);
    // Every kept generation validates and carries THIS writer's payload.
    for (std::uint64_t gen : gens) {
      Reader r(validate_image(read_image(ring.path_for(gen))));
      r.expect_section("TST1");
      EXPECT_EQ(r.u64(), writer);
      EXPECT_EQ(r.u64(), gen);
      EXPECT_EQ(r.str(), std::string(1024, static_cast<char>('A' + writer)));
    }
    const GenerationRing::LoadResult newest = ring.load_newest();
    ASSERT_TRUE(newest.found);
    EXPECT_EQ(newest.generation, kSaves - 1);
    EXPECT_TRUE(newest.rejected.empty());
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace crowdlearn::ckpt
