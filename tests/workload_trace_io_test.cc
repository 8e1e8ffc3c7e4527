#include "serpentine/workload/trace_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "serpentine/workload/generators.h"

namespace serpentine::workload {
namespace {

TEST(TraceIoTest, SerializeParseRoundTrip) {
  std::vector<sched::Request> trace = {{100, 1}, {250000, 32}, {7, 1}};
  auto parsed = ParseTrace(SerializeTrace(trace));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, trace);
}

TEST(TraceIoTest, CountOmittedWhenOne) {
  std::string text = SerializeTrace({{42, 1}, {43, 5}});
  EXPECT_NE(text.find("\n42\n"), std::string::npos);
  EXPECT_NE(text.find("\n43 5\n"), std::string::npos);
}

TEST(TraceIoTest, ParsesCommentsAndBlanks) {
  auto parsed = ParseTrace(
      "# header\n"
      "\n"
      "100\n"
      "   # indented comment\n"
      "200 3\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (sched::Request{100, 1}));
  EXPECT_EQ((*parsed)[1], (sched::Request{200, 3}));
  // CRLF line ends and tab separators parse the same.
  auto crlf = ParseTrace("# header\r\n\r\n100\r\n200\t3\r\n");
  ASSERT_TRUE(crlf.ok()) << crlf.status().ToString();
  EXPECT_EQ(*crlf, *parsed);
}

TEST(TraceIoTest, EmptyTraceIsValid) {
  auto parsed = ParseTrace("# nothing here\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(TraceIoTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseTrace("abc\n").ok());
  EXPECT_FALSE(ParseTrace("100 2 7\n").ok());   // trailing field
  EXPECT_FALSE(ParseTrace("-5\n").ok());        // negative segment
  EXPECT_FALSE(ParseTrace("100 0\n").ok());     // non-positive count
  // Each field must be one whole number, not a numeric prefix.
  EXPECT_FALSE(ParseTrace("12abc\n").ok());
  EXPECT_FALSE(ParseTrace("1e3\n").ok());
  EXPECT_FALSE(ParseTrace("5 x\n").ok());
  EXPECT_FALSE(ParseTrace("7 99999999999999999999\n").ok());
  // The error names the line and the bad field.
  auto bad = ParseTrace("# header\n100\n5 x\n");
  ASSERT_FALSE(bad.ok());
  const std::string message = bad.status().ToString();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'x'"), std::string::npos) << message;
}

TEST(TraceIoTest, SaveLoadFileAndReplay) {
  std::vector<sched::Request> trace = {{10, 1}, {20, 2}, {30, 1}};
  std::string path = ::testing::TempDir() + "/trace_io_test.txt";
  ASSERT_TRUE(SaveTrace(path, trace).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, trace);

  // Round into the generator for replay.
  TraceGenerator generator(*loaded);
  auto batch = generator.Batch(5);
  EXPECT_EQ(batch[0].segment, 10);
  EXPECT_EQ(batch[3].segment, 10);
  std::remove(path.c_str());
}

TEST(TraceIoTest, LoadMissingFile) {
  EXPECT_EQ(LoadTrace("/no/such/file.txt").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace serpentine::workload
