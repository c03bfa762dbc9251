#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "formats/text/text_format.h"
#include "hdfs/mini_hdfs.h"
#include "mapreduce/job.h"
#include "workload/synthetic.h"

namespace colmr {
namespace {

ClusterConfig TestCluster(uint64_t block_size) {
  ClusterConfig config;
  config.num_nodes = 4;
  config.block_size = block_size;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs(uint64_t block_size = 16 * 1024) {
  return std::make_unique<MiniHdfs>(
      TestCluster(block_size), std::make_unique<DefaultPlacementPolicy>(3));
}

TEST(TextRecordTest, FormatParseRoundTrip) {
  Schema::Ptr schema = MicrobenchSchema();
  MicrobenchGenerator gen(1);
  for (int i = 0; i < 100; ++i) {
    const Value record = gen.Next();
    const std::string line = FormatTextRecord(*schema, record);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    Value parsed;
    ASSERT_TRUE(ParseTextRecord(*schema, line, &parsed).ok());
    EXPECT_EQ(record.Compare(parsed), 0);
  }
}

TEST(TextRecordTest, EscapedDelimitersSurvive) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { a: string, b: string }", &schema).ok());
  const Value record = Value::Record(
      {Value::String("tab\there\nand newline"), Value::String("quote\"back\\")});
  const std::string line = FormatTextRecord(*schema, record);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  Value parsed;
  ASSERT_TRUE(ParseTextRecord(*schema, line, &parsed).ok());
  EXPECT_EQ(record.Compare(parsed), 0);
}

// TXT stores numbers as Value::ToString text, which must read back
// bit-exact: shortest round-trip digits, signed zero, the infinities, NaN
// and the int64 extremes.
TEST(TextRecordTest, NumbersRoundTripBitExact) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { d: double, l: long }", &schema).ok());
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {0.1234567891, 1e-9, -0.0, inf, -inf,
                            1.5e300,      3.0,  nan,  -nan};
  const int64_t longs[] = {INT64_MIN, INT64_MAX, 0, -1};
  for (size_t i = 0; i < std::size(doubles); ++i) {
    const std::string line = FormatTextRecord(
        *schema, Value::Record({Value::Double(doubles[i]),
                                Value::Int64(longs[i % std::size(longs)])}));
    Value parsed;
    ASSERT_TRUE(ParseTextRecord(*schema, line, &parsed).ok()) << line;
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed.elements()[0].double_value()),
              std::bit_cast<uint64_t>(doubles[i]))
        << line;
    EXPECT_EQ(parsed.elements()[1].int64_value(), longs[i % std::size(longs)]);
  }
  EXPECT_EQ(Value::Double(3.0).ToString(), "3.0");
  EXPECT_EQ(Value::Double(-0.0).ToString(), "-0.0");
  EXPECT_EQ(Value::Double(1e-9).ToString(), "1e-09");
  // Text written elsewhere may sign a double with one '+'.
  Value parsed;
  ASSERT_TRUE(ParseTextRecord(*schema, "+1.5\t7", &parsed).ok());
  EXPECT_EQ(parsed.elements()[0].double_value(), 1.5);
  ASSERT_TRUE(ParseTextRecord(*schema, "+inf\t7", &parsed).ok());
  EXPECT_EQ(parsed.elements()[0].double_value(), inf);
  EXPECT_FALSE(ParseTextRecord(*schema, "++1.5\t7", &parsed).ok());
  EXPECT_FALSE(ParseTextRecord(*schema, "+-1.5\t7", &parsed).ok());
}

TEST(TextRecordTest, MalformedLinesRejected) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { a: int, b: string }", &schema).ok());
  Value parsed;
  EXPECT_FALSE(ParseTextRecord(*schema, "12", &parsed).ok());          // missing b
  EXPECT_FALSE(ParseTextRecord(*schema, "x\t\"y\"", &parsed).ok());    // bad int
  EXPECT_FALSE(ParseTextRecord(*schema, "1\t\"y\"\textra", &parsed).ok());
  EXPECT_FALSE(ParseTextRecord(*schema, "1\t\"unterminated", &parsed).ok());
}

TEST(TextDatasetTest, WriteThenScanAll) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  MicrobenchGenerator gen(2);
  std::vector<Value> records;
  std::unique_ptr<TextWriter> writer;
  ASSERT_TRUE(TextWriter::Open(fs.get(), "/txt", schema, &writer).ok());
  for (int i = 0; i < 500; ++i) {
    records.push_back(gen.Next());
    ASSERT_TRUE(writer->WriteRecord(records.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->record_count(), 500u);

  TextInputFormat format;
  JobConfig config;
  config.input_paths = {"/txt"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());
  EXPECT_GT(splits.size(), 1u);  // block-sized ranges

  size_t total = 0;
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) {
      const Value& url = reader->record().GetOrDie("str0");
      EXPECT_FALSE(url.string_value().empty());
      ++total;
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  }
  EXPECT_EQ(total, 500u);
}

// Property: whatever the split (HDFS block) size, every record is read
// exactly once.
class TextSplitBoundaryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TextSplitBoundaryTest, NoLossNoDuplication) {
  auto fs = MakeFs(GetParam());
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { id: int, s: string }", &schema).ok());
  std::unique_ptr<TextWriter> writer;
  ASSERT_TRUE(TextWriter::Open(fs.get(), "/t", schema, &writer).ok());
  Random rng(4);
  const int kRecords = 1000;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(writer
                    ->WriteRecord(Value::Record(
                        {Value::Int32(i),
                         Value::String(rng.NextString(5, 60))}))
                    .ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  TextInputFormat format;
  JobConfig config;
  config.input_paths = {"/t"};
  std::vector<InputSplit> splits;
  ASSERT_TRUE(format.GetSplits(fs.get(), config, &splits).ok());

  std::vector<bool> seen(kRecords, false);
  for (const InputSplit& split : splits) {
    std::unique_ptr<RecordReader> reader;
    ASSERT_TRUE(format
                    .CreateRecordReader(fs.get(), config, split, ReadContext{},
                                        &reader)
                    .ok());
    while (reader->Next()) {
      const int id = reader->record().GetOrDie("id").int32_value();
      ASSERT_GE(id, 0);
      ASSERT_LT(id, kRecords);
      EXPECT_FALSE(seen[id]) << "record " << id << " read twice";
      seen[id] = true;
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
  }
  for (int i = 0; i < kRecords; ++i) {
    EXPECT_TRUE(seen[i]) << "record " << i << " lost";
  }
}

INSTANTIATE_TEST_SUITE_P(SplitSizes, TextSplitBoundaryTest,
                         ::testing::Values(512, 1000, 4096, 7777, 65536,
                                           1 << 20));

TEST(TextDatasetTest, SchemaFileRoundTrip) {
  auto fs = MakeFs();
  Schema::Ptr schema = MicrobenchSchema();
  ASSERT_TRUE(WriteDatasetSchema(fs.get(), "/d", *schema).ok());
  Schema::Ptr read;
  ASSERT_TRUE(ReadDatasetSchema(fs.get(), "/d", &read).ok());
  EXPECT_TRUE(schema->Equals(*read));
  Schema::Ptr missing;
  EXPECT_FALSE(ReadDatasetSchema(fs.get(), "/nope", &missing).ok());
}

}  // namespace
}  // namespace colmr
