#include "util/snapshot.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "unique_temp_dir.h"

namespace logmine {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The zlib/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(SnapshotTest, RoundTripsEveryPrimitive) {
  SnapshotWriter w;
  w.BeginSection("prims");
  w.PutU32(42);
  w.PutU64(0xDEADBEEFCAFEF00DULL);
  w.PutI64(-12345678901234LL);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutBool(false);
  w.PutString("hello snapshot");
  w.PutString("");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader.value().version(), kSnapshotVersion);
  auto cursor = reader.value().Section("prims");
  ASSERT_TRUE(cursor.ok());
  SectionCursor& c = cursor.value();
  EXPECT_EQ(c.ReadU32().value(), 42u);
  EXPECT_EQ(c.ReadU64().value(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(c.ReadI64().value(), -12345678901234LL);
  EXPECT_EQ(c.ReadDouble().value(), 3.25);
  EXPECT_TRUE(c.ReadBool().value());
  EXPECT_FALSE(c.ReadBool().value());
  EXPECT_EQ(c.ReadString().value(), "hello snapshot");
  EXPECT_EQ(c.ReadString().value(), "");
  EXPECT_TRUE(c.ExpectEnd().ok());
}

TEST(SnapshotTest, MultipleSectionsAddressableByName) {
  SnapshotWriter w;
  w.BeginSection("first");
  w.PutU32(1);
  w.EndSection();
  w.BeginSection("second");
  w.PutU32(2);
  w.EndSection();
  w.BeginSection("empty");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_TRUE(reader.value().HasSection("first"));
  EXPECT_TRUE(reader.value().HasSection("empty"));
  EXPECT_FALSE(reader.value().HasSection("third"));
  EXPECT_EQ(reader.value().Section("second").value().ReadU32().value(), 2u);
  EXPECT_EQ(reader.value().Section("first").value().ReadU32().value(), 1u);
  EXPECT_EQ(reader.value().Section("empty").value().remaining(), 0u);
  EXPECT_EQ(reader.value().Section("third").status().code(),
            StatusCode::kNotFound);
}

TEST(SnapshotTest, TruncationAnywhereIsRejected) {
  SnapshotWriter w;
  w.BeginSection("data");
  for (int i = 0; i < 100; ++i) w.PutU64(static_cast<uint64_t>(i));
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  // Every strict prefix must fail to parse — no truncation point may
  // yield a valid snapshot.
  for (size_t len : {size_t{0}, size_t{7}, size_t{15}, bytes.size() / 2,
                     bytes.size() - 1}) {
    auto reader = SnapshotReader::Parse(bytes.substr(0, len));
    EXPECT_FALSE(reader.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(SnapshotTest, BitFlipAnywhereIsRejected) {
  SnapshotWriter w;
  w.BeginSection("data");
  w.PutString("payload payload payload");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  for (size_t i = 0; i < bytes.size(); i += 3) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    auto reader = SnapshotReader::Parse(corrupt);
    EXPECT_FALSE(reader.ok()) << "flip at byte " << i << " parsed";
  }
}

TEST(SnapshotTest, VersionMismatchIsFailedPrecondition) {
  SnapshotWriter w(kSnapshotVersion + 1);
  w.BeginSection("data");
  w.PutU32(7);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kFailedPrecondition);
  // The same bytes parse fine when the reader expects that version.
  EXPECT_TRUE(SnapshotReader::Parse(bytes, kSnapshotVersion + 1).ok());
}

TEST(SnapshotTest, CursorNeverReadsPastSectionEnd) {
  SnapshotWriter w;
  w.BeginSection("small");
  w.PutU32(9);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("small").value();
  EXPECT_TRUE(c.ReadU32().ok());
  EXPECT_EQ(c.ReadU64().status().code(), StatusCode::kParseError);
  EXPECT_EQ(c.ReadString().status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, StringLengthBeyondPayloadIsRejected) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.PutU64(1000);  // a string length prefix with no bytes behind it
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("s").value();
  EXPECT_EQ(c.ReadString().status().code(), StatusCode::kParseError);
}

TEST(SnapshotTest, ExpectEndFlagsUndecodedBytes) {
  SnapshotWriter w;
  w.BeginSection("s");
  w.PutU32(1);
  w.PutU32(2);
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  auto reader = SnapshotReader::Parse(bytes);
  ASSERT_TRUE(reader.ok());
  SectionCursor c = reader.value().Section("s").value();
  EXPECT_TRUE(c.ReadU32().ok());
  EXPECT_EQ(c.ExpectEnd().code(), StatusCode::kParseError);
}

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  SnapshotWriter w;
  w.BeginSection("file");
  w.PutString("on disk");
  w.EndSection();
  const std::string bytes = std::move(w).Finish();

  const test::UniqueTempDir dir;
  const std::string path = dir.File("roundtrip.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, bytes).ok());
  // The tmp file is gone after the rename.
  EXPECT_TRUE(dir.FilesOtherThan("roundtrip.snap").empty());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes);
  auto reader = SnapshotReader::Parse(read.value());
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.value().Section("file").value().ReadString().value(),
            "on disk");
}

TEST(SnapshotFileTest, ConcurrentWritersOfOnePathNeverTearIt) {
  // A shard and its hedge persist the same partial: every writer has
  // its own tmp file, so the survivor is one writer's complete payload.
  const test::UniqueTempDir dir;
  const std::string path = dir.File("shared.snap");
  constexpr int kWriters = 4;
  constexpr int kRounds = 25;
  std::vector<std::string> payloads;
  for (int i = 0; i < kWriters; ++i) {
    // Distinct sizes, so a mix of two writers' bytes cannot pass.
    payloads.emplace_back(4096 * (i + 1), static_cast<char>('a' + i));
  }
  std::vector<std::thread> writers;
  for (int i = 0; i < kWriters; ++i) {
    writers.emplace_back([&, i] {
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(WriteFileAtomic(path, payloads[i]).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_NE(std::find(payloads.begin(), payloads.end(), read.value()),
            payloads.end());
  EXPECT_TRUE(dir.FilesOtherThan("shared.snap").empty());
}

TEST(SnapshotFileTest, MissingFileIsNotFound) {
  const test::UniqueTempDir dir;
  auto read = ReadFileToString(dir.File("does_not_exist.snap"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotFileTest, UnwritableDirectoryIsInternal) {
  const test::UniqueTempDir dir;
  const Status status =
      WriteSnapshotFile(dir.File("no/such/dir/x.snap"), "bytes");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace logmine
