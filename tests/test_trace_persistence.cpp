// Tests for trace serialization (workloads/trace.hpp save/load).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "workloads/fresh_uniform.hpp"
#include "workloads/repeated_set.hpp"
#include "workloads/trace.hpp"

namespace rlb::workloads {
namespace {

TEST(TracePersistence, RoundTripsThroughStream) {
  FreshUniformWorkload source(5);
  const Trace original = Trace::record(source, 4);
  std::stringstream buffer;
  original.save(buffer);
  const Trace restored = Trace::load(buffer);
  EXPECT_EQ(restored, original);
  EXPECT_EQ(restored.step_count(), 4u);
  EXPECT_EQ(restored.total_requests(), 20u);
  EXPECT_EQ(restored.max_batch_size(), 5u);
}

TEST(TracePersistence, PreservesEmptySteps) {
  Trace trace;
  trace.append_step({1, 2, 3});
  trace.append_step({});
  trace.append_step({9});
  std::stringstream buffer;
  trace.save(buffer);
  const Trace restored = Trace::load(buffer);
  ASSERT_EQ(restored.step_count(), 3u);
  EXPECT_TRUE(restored.step(1).empty());
  EXPECT_EQ(restored.step(2), (std::vector<core::ChunkId>{9}));
}

TEST(TracePersistence, HandlesLargeChunkIds) {
  Trace trace;
  trace.append_step({0xffffffffffffffffULL, 0});
  std::stringstream buffer;
  trace.save(buffer);
  const Trace restored = Trace::load(buffer);
  EXPECT_EQ(restored.step(0)[0], 0xffffffffffffffffULL);
}

TEST(TracePersistence, FileRoundTrip) {
  RepeatedSetWorkload source(8, 1000, 3);
  const Trace original = Trace::record(source, 3);
  const std::string path = "/tmp/rlb_trace_test.txt";
  original.save_file(path);
  const Trace restored = Trace::load_file(path);
  EXPECT_EQ(restored, original);
  std::remove(path.c_str());
}

TEST(TracePersistence, MissingFileThrows) {
  EXPECT_THROW(Trace::load_file("/nonexistent/dir/trace.txt"),
               std::runtime_error);
  Trace trace;
  trace.append_step({1});
  EXPECT_THROW(trace.save_file("/nonexistent/dir/trace.txt"),
               std::runtime_error);
}

TEST(TracePersistence, LoadedTraceDrivesWorkload) {
  FreshUniformWorkload source(4);
  const Trace original = Trace::record(source, 2);
  std::stringstream buffer;
  original.save(buffer);
  const Trace restored = Trace::load(buffer);
  TraceWorkload replay(restored);
  std::vector<core::ChunkId> batch;
  replay.fill_step(0, batch);
  EXPECT_EQ(batch, original.step(0));
}

TEST(TraceBinary, RoundTripsExactly) {
  RepeatedSetWorkload source(16, 1 << 20, 11);
  const Trace original = Trace::record(source, 25);
  std::stringstream buffer;
  original.save_binary(buffer);
  const Trace restored = Trace::load_binary(buffer);
  EXPECT_EQ(restored, original);
  EXPECT_EQ(restored.step_count(), original.step_count());
  EXPECT_EQ(restored.total_requests(), original.total_requests());
  EXPECT_EQ(restored.max_batch_size(), original.max_batch_size());
}

TEST(TraceBinary, PreservesEmptyStepsAndExtremeIds) {
  Trace trace;
  trace.append_step({0xffffffffffffffffULL, 0, 1});
  trace.append_step({});
  trace.append_step({0x8000000000000000ULL});
  std::stringstream buffer;
  trace.save_binary(buffer);
  const Trace restored = Trace::load_binary(buffer);
  ASSERT_EQ(restored.step_count(), 3u);
  EXPECT_EQ(restored.step(0)[0], 0xffffffffffffffffULL);
  EXPECT_TRUE(restored.step(1).empty());
  EXPECT_EQ(restored.step(2), (std::vector<core::ChunkId>{0x8000000000000000ULL}));
}

TEST(TraceBinary, EmptyTraceRoundTrips) {
  Trace trace;
  std::stringstream buffer;
  trace.save_binary(buffer);
  EXPECT_EQ(Trace::load_binary(buffer).step_count(), 0u);
}

TEST(TraceBinary, HeaderIsMagicPlusVersion) {
  Trace trace;
  trace.append_step({42});
  std::stringstream buffer;
  trace.save_binary(buffer);
  const std::string bytes = buffer.str();
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "RLBT");
  // Little-endian u32 version 1.
  EXPECT_EQ(bytes[4], 1);
  EXPECT_EQ(bytes[5], 0);
  // 4 magic + 4 version + 8 steps + 4 batch size + 8 chunk id.
  EXPECT_EQ(bytes.size(), 28u);
}

TEST(TraceBinary, RejectsBadMagicVersionAndTruncation) {
  Trace trace;
  trace.append_step({1, 2, 3});
  std::stringstream buffer;
  trace.save_binary(buffer);
  const std::string bytes = buffer.str();

  {
    std::stringstream bad("XXXX" + bytes.substr(4));
    EXPECT_THROW(Trace::load_binary(bad), std::runtime_error);
  }
  {
    std::string wrong_version = bytes;
    wrong_version[4] = 99;
    std::stringstream bad(wrong_version);
    EXPECT_THROW(Trace::load_binary(bad), std::runtime_error);
  }
  for (const std::size_t cut :
       std::vector<std::size_t>{5, 10, 20, bytes.size() - 1}) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(Trace::load_binary(truncated), std::runtime_error)
        << "cut at " << cut;
  }
}

TEST(TraceBinary, RejectsCountsLargerThanTheFileWithoutAllocating) {
  // A 20-byte header: magic, version 1, one step claiming 2^32-1 chunks.
  // The loader must see that 32 GiB of chunk ids cannot follow and report
  // a truncated stream, not size a reservation from the count.
  std::string bytes = "RLBT";
  bytes += std::string("\x01\x00\x00\x00", 4);
  bytes += std::string("\x01\x00\x00\x00\x00\x00\x00\x00", 8);
  bytes += std::string("\xff\xff\xff\xff", 4);
  ASSERT_EQ(bytes.size(), 20u);
  std::stringstream huge_batch(bytes);
  EXPECT_THROW(Trace::load_binary(huge_batch), std::runtime_error);

  // Same for the step count: 2^64-1 steps and nothing after them.
  std::string steps = "RLBT";
  steps += std::string("\x01\x00\x00\x00", 4);
  steps += std::string(8, '\xff');
  std::stringstream huge_steps(steps);
  EXPECT_THROW(Trace::load_binary(huge_steps), std::runtime_error);
}

TEST(TraceBinary, BinaryFileRoundTripAndAutoDetect) {
  FreshUniformWorkload source(7);
  const Trace original = Trace::record(source, 5);
  const std::string binary_path = "/tmp/rlb_trace_test.bin";
  const std::string text_path = "/tmp/rlb_trace_test_auto.txt";
  original.save_binary_file(binary_path);
  original.save_file(text_path);
  EXPECT_EQ(Trace::load_binary_file(binary_path), original);
  // load_auto_file sniffs the magic and handles both formats.
  EXPECT_EQ(Trace::load_auto_file(binary_path), original);
  EXPECT_EQ(Trace::load_auto_file(text_path), original);
  std::remove(binary_path.c_str());
  std::remove(text_path.c_str());
}

TEST(TraceBinary, BinaryIsSmallerThanTextForLargeIds) {
  Trace trace;
  std::vector<core::ChunkId> batch;
  for (std::uint64_t i = 0; i < 256; ++i) {
    batch.push_back(0xfff0000000000000ULL + i);  // 19-20 text digits each
  }
  trace.append_step(std::move(batch));
  std::stringstream text, binary;
  trace.save(text);
  trace.save_binary(binary);
  EXPECT_LT(binary.str().size(), text.str().size());
}

}  // namespace
}  // namespace rlb::workloads
