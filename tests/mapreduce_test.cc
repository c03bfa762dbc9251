#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cif/cif.h"
#include "cif/cof.h"
#include "formats/seq/seq_file.h"
#include "formats/text/text_format.h"
#include "mapreduce/engine.h"
#include "workload/weblog.h"

namespace colmr {
namespace {

ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 4;
  config.map_slots_per_node = 2;
  config.block_size = 16 * 1024;
  config.io_buffer_size = 4 * 1024;
  return config;
}

std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(17));
}

// Writes a tiny TXT dataset of sentences for word counting.
void WriteSentences(MiniHdfs* fs, const std::string& path,
                    const std::vector<std::string>& sentences) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record S { text: string }", &schema).ok());
  std::unique_ptr<TextWriter> writer;
  ASSERT_TRUE(TextWriter::Open(fs, path, schema, &writer).ok());
  for (const std::string& s : sentences) {
    ASSERT_TRUE(writer->WriteRecord(Value::Record({Value::String(s)})).ok());
  }
  ASSERT_TRUE(writer->Close().ok());
}

TEST(JobRunnerTest, WordCountEndToEnd) {
  auto fs = MakeFs();
  WriteSentences(fs.get(), "/in",
                 {"the quick brown fox", "the lazy dog", "the fox again"});

  Job job;
  job.config.input_paths = {"/in"};
  job.config.output_path = "/out";
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    std::istringstream words(record.GetOrDie("text").string_value());
    std::string word;
    while (words >> word) {
      out->Emit(Value::String(word), Value::Int32(1));
    }
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    int64_t sum = 0;
    for (const Value& v : values) sum += v.int32_value();
    out->Emit(key, Value::Int64(sum));
  };

  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());

  std::map<std::string, int64_t> counts;
  for (const auto& [key, value] : report.output) {
    counts[key.string_value()] = value.int64_value();
  }
  EXPECT_EQ(counts["the"], 3);
  EXPECT_EQ(counts["fox"], 2);
  EXPECT_EQ(counts["dog"], 1);
  EXPECT_EQ(counts.size(), 7u);

  EXPECT_EQ(report.map_input_records, 3u);
  EXPECT_EQ(report.map_output_records, 10u);
  EXPECT_EQ(report.reduce_output_records, 7u);
  EXPECT_GT(report.map_output_bytes, 0u);
  EXPECT_GT(report.total_seconds, 0.0);
  EXPECT_GE(report.total_seconds, report.map_phase_seconds);

  // Output part file was materialized.
  EXPECT_TRUE(fs->Exists("/out/part-r-00000"));
}

// shuffle_bytes is the post-combine tagged size of what actually crosses
// the shuffle, so a combiner can only shrink it relative to
// map_output_bytes — never grow it. Without a combiner the in-memory path
// measures both at the same point, so they are equal.
TEST(JobRunnerTest, CombinerShuffleAccounting) {
  std::vector<std::string> sentences;
  for (int i = 0; i < 50; ++i) {
    sentences.push_back("alpha beta alpha gamma alpha beta");
  }

  auto run = [&](bool with_combiner, uint64_t sort_buffer_bytes) {
    auto fs = MakeFs();
    WriteSentences(fs.get(), "/in", sentences);
    Job job;
    job.config.input_paths = {"/in"};
    job.config.sort_buffer_bytes = sort_buffer_bytes;
    job.input_format = std::make_shared<TextInputFormat>();
    job.mapper = [](Record& record, Emitter* out) {
      std::istringstream words(record.GetOrDie("text").string_value());
      std::string word;
      while (words >> word) out->Emit(Value::String(word), Value::Int32(1));
    };
    ReduceFn sum = [](const Value& key, const std::vector<Value>& values,
                      Emitter* out) {
      int64_t total = 0;
      for (const Value& v : values) {
        total += v.kind() == TypeKind::kInt32 ? v.int32_value()
                                              : v.int64_value();
      }
      out->Emit(key, Value::Int64(total));
    };
    job.reducer = sum;
    if (with_combiner) job.combiner = sum;
    JobRunner runner(fs.get());
    JobReport report;
    EXPECT_TRUE(runner.Run(job, &report).ok());
    return report;
  };

  const JobReport plain = run(false, 0);
  EXPECT_EQ(plain.shuffle_bytes, plain.map_output_bytes);

  for (uint64_t sort_buffer : {uint64_t{0}, uint64_t{256}}) {
    SCOPED_TRACE(sort_buffer);
    const JobReport combined = run(true, sort_buffer);
    EXPECT_GT(combined.shuffle_bytes, 0u);
    EXPECT_LE(combined.shuffle_bytes, combined.map_output_bytes);
    EXPECT_LT(combined.map_output_bytes, plain.map_output_bytes);
    EXPECT_EQ(combined.reduce_output_records, 3u);
  }
}

TEST(JobRunnerTest, MapOnlyJobCollectsMapOutput) {
  auto fs = MakeFs();
  WriteSentences(fs.get(), "/in", {"a b", "c"});
  Job job;
  job.config.input_paths = {"/in"};
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(Value::Null(), record.GetOrDie("text"));
  };
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(report.output.size(), 2u);
  EXPECT_EQ(report.reduce_phase_seconds, 0.0);
  EXPECT_EQ(report.shuffle_seconds, 0.0);
}

TEST(JobRunnerTest, MissingPiecesRejected) {
  auto fs = MakeFs();
  JobRunner runner(fs.get());
  JobReport report;
  Job no_format;
  no_format.mapper = [](Record&, Emitter*) {};
  EXPECT_TRUE(runner.Run(no_format, &report).IsInvalidArgument());
  Job no_mapper;
  no_mapper.input_format = std::make_shared<TextInputFormat>();
  EXPECT_TRUE(runner.Run(no_mapper, &report).IsInvalidArgument());
  Job empty_input;
  empty_input.input_format = std::make_shared<TextInputFormat>();
  empty_input.mapper = [](Record&, Emitter*) {};
  empty_input.config.input_paths = {"/nope"};
  EXPECT_FALSE(runner.Run(empty_input, &report).ok());
  // prefetch_depth is a field that must stay 0.
  WriteSentences(fs.get(), "/words", {"a b"});
  Job words;
  words.input_format = std::make_shared<TextInputFormat>();
  words.mapper = [](Record&, Emitter*) {};
  words.config.input_paths = {"/words"};
  words.config.prefetch_depth = 2;
  EXPECT_TRUE(runner.Run(words, &report).IsInvalidArgument());
  words.config.prefetch_depth = 0;
  EXPECT_TRUE(runner.Run(words, &report).ok());
}

TEST(JobRunnerTest, CifJobIsDataLocalUnderCpp) {
  // Section 6.4's good case: with CPP placement every split has common
  // replica nodes, so the scheduler achieves (mostly) local tasks.
  auto fs = MakeFs();
  Schema::Ptr schema = WeblogSchema();
  CofOptions cof;
  cof.split_target_bytes = 32 * 1024;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(CofWriter::Open(fs.get(), "/logs", schema, cof, &writer).ok());
  WeblogGenerator gen(5);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  Job job;
  job.config.input_paths = {"/logs"};
  job.config.projection = {"status"};
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(Value::Int32(record.GetOrDie("status").int32_value()),
              Value::Int32(1));
  };
  job.reducer = [](const Value& key, const std::vector<Value>& values,
                   Emitter* out) {
    out->Emit(key, Value::Int64(static_cast<int64_t>(values.size())));
  };

  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(report.map_input_records, 2000u);
  // All tasks find a co-located node (there are few tasks and 3 replicas).
  EXPECT_GT(report.data_local_tasks, 0);
  EXPECT_EQ(report.bytes_read_remote, 0u);

  int64_t total = 0;
  for (const auto& [key, value] : report.output) total += value.int64_value();
  EXPECT_EQ(total, 2000);
}

TEST(JobRunnerTest, DefaultPlacementForcesRemoteReads) {
  // Section 6.4's bad case: same job, default placement — column files
  // scatter, and map tasks must read some columns remotely.
  auto fs = std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<DefaultPlacementPolicy>(17));
  Schema::Ptr schema = WeblogSchema();
  CofOptions cof;
  cof.split_target_bytes = 32 * 1024;
  std::unique_ptr<CofWriter> writer;
  ASSERT_TRUE(CofWriter::Open(fs.get(), "/logs", schema, cof, &writer).ok());
  WeblogGenerator gen(5);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(writer->WriteRecord(gen.Next()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  Job job;
  job.config.input_paths = {"/logs"};
  job.config.projection = {"status", "bytes", "url"};
  job.input_format = std::make_shared<ColumnInputFormat>();
  job.mapper = [](Record& record, Emitter* out) {
    out->Emit(Value::Int32(record.GetOrDie("status").int32_value()),
              Value::Int32(record.GetOrDie("bytes").int32_value()));
  };

  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_GT(report.bytes_read_remote, 0u);
}

TEST(JobRunnerTest, ReportAccountsBytesAndTasks) {
  auto fs = MakeFs();
  WriteSentences(fs.get(), "/in", std::vector<std::string>(100, "x y z"));
  Job job;
  job.config.input_paths = {"/in"};
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record&, Emitter*) {};
  JobRunner runner(fs.get());
  JobReport report;
  ASSERT_TRUE(runner.Run(job, &report).ok());
  EXPECT_EQ(report.map_input_records, 100u);
  EXPECT_EQ(report.map_output_records, 0u);
  EXPECT_EQ(static_cast<int>(report.map_tasks.size()),
            report.data_local_tasks + report.remote_tasks);
  uint64_t sum_local = 0;
  for (const TaskReport& task : report.map_tasks) {
    sum_local += task.io.local_bytes;
    EXPECT_GE(task.sim_seconds, 0.0);
  }
  EXPECT_EQ(sum_local, report.bytes_read_local);
}

}  // namespace
}  // namespace colmr
