#ifndef COLMR_TESTS_WORD_COUNT_JOB_H_
#define COLMR_TESTS_WORD_COUNT_JOB_H_

// The word-count job the shuffle and commit suites share, over text files
// on a tiny-block cluster: many distinct keys make every reduce partition
// non-empty and multi-block, so write faults have seals to bite on, and a
// heavily repeated key gives the combiner something to fold.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "formats/text/text_format.h"
#include "mapreduce/engine.h"

namespace colmr {

// CI sweeps the fault schedule seed (COLMR_FAULT_SEED) so probabilistic
// tests hold for every schedule, not one lucky draw.
inline uint64_t FaultSeed() {
  const char* env = std::getenv("COLMR_FAULT_SEED");
  return env == nullptr ? 17 : std::strtoull(env, nullptr, 10);
}

inline ClusterConfig TestCluster() {
  ClusterConfig config;
  config.num_nodes = 8;
  config.map_slots_per_node = 2;
  config.block_size = 1024;
  config.io_buffer_size = 256;
  return config;
}

inline std::unique_ptr<MiniHdfs> MakeFs() {
  return std::make_unique<MiniHdfs>(
      TestCluster(), std::make_unique<ColumnPlacementPolicy>(17));
}

// `files` text files under `dir`; line n reads "word<n % 509> common".
inline void WriteWords(MiniHdfs* fs, const std::string& dir, int files,
                       int words_per_file) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record S { text: string }", &schema).ok());
  int next = 0;
  for (int f = 0; f < files; ++f) {
    std::unique_ptr<TextWriter> writer;
    ASSERT_TRUE(
        TextWriter::Open(fs, dir + "/f" + std::to_string(f), schema, &writer)
            .ok());
    for (int w = 0; w < words_per_file; ++w) {
      std::string sentence = "word" + std::to_string(next % 509) + " common";
      ++next;
      ASSERT_TRUE(
          writer->WriteRecord(Value::Record({Value::String(sentence)})).ok());
    }
    ASSERT_TRUE(writer->Close().ok());
  }
}

inline Job WordCountJob(const std::string& out, bool with_combiner = false) {
  Job job;
  job.config.input_paths = {"/in"};
  job.config.output_path = out;
  job.input_format = std::make_shared<TextInputFormat>();
  job.mapper = [](Record& record, Emitter* emit) {
    std::istringstream words(record.GetOrDie("text").string_value());
    std::string word;
    while (words >> word) emit->Emit(Value::String(word), Value::Int32(1));
  };
  ReduceFn sum = [](const Value& key, const std::vector<Value>& values,
                    Emitter* emit) {
    int64_t total = 0;
    for (const Value& v : values) {
      total +=
          v.kind() == TypeKind::kInt32 ? v.int32_value() : v.int64_value();
    }
    emit->Emit(key, Value::Int64(total));
  };
  job.reducer = sum;
  if (with_combiner) job.combiner = sum;
  return job;
}

inline std::string ReadFile(MiniHdfs* fs, const std::string& path) {
  std::unique_ptr<FileReader> reader;
  EXPECT_TRUE(fs->Open(path, ReadContext{}, &reader).ok());
  std::string data;
  EXPECT_TRUE(reader->Read(0, reader->size(), &data).ok());
  return data;
}

}  // namespace colmr

#endif  // COLMR_TESTS_WORD_COUNT_JOB_H_
