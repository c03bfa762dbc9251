#include "formats/text/text_format.h"

#include <cctype>
#include <charconv>
#include <cstring>

#include "mapreduce/job.h"

namespace colmr {

std::string FormatTextRecord(const Schema& schema, const Value& record) {
  std::string line;
  const auto& values = record.elements();
  for (size_t i = 0; i < schema.fields().size() && i < values.size(); ++i) {
    if (i > 0) line += '\t';
    // Value::ToString escapes tabs and newlines inside strings, so the
    // field and record delimiters stay unambiguous.
    line += values[i].ToString();
  }
  return line;
}

namespace {

/// Recursive-descent parser for the Value::ToString grammar.
class TextValueParser {
 public:
  explicit TextValueParser(Slice input) : input_(input) {}

  Status ParseValue(const Schema& schema, Value* out) {
    switch (schema.kind()) {
      case TypeKind::kNull:
        COLMR_RETURN_IF_ERROR(ExpectLiteral("null"));
        *out = Value::Null();
        return Status::OK();
      case TypeKind::kBool: {
        if (TryLiteral("true")) {
          *out = Value::Bool(true);
        } else if (TryLiteral("false")) {
          *out = Value::Bool(false);
        } else {
          return Status::Corruption("txt: expected bool");
        }
        return Status::OK();
      }
      case TypeKind::kInt32:
      case TypeKind::kInt64: {
        int64_t v = 0;
        COLMR_RETURN_IF_ERROR(ParseInteger(&v));
        *out = schema.kind() == TypeKind::kInt32
                   ? Value::Int32(static_cast<int32_t>(v))
                   : Value::Int64(v);
        return Status::OK();
      }
      case TypeKind::kDouble: {
        // The shortest round-trip text Value::ToString writes, including
        // nan, -nan, inf and -inf. Text written elsewhere may sign a
        // number with one '+', which from_chars does not take.
        double v = 0;
        const char* begin = input_.data();
        const char* end = begin + input_.size();
        if (end - begin > 1 && begin[0] == '+' && begin[1] != '-') ++begin;
        const auto parsed = std::from_chars(begin, end, v);
        if (parsed.ec != std::errc()) {
          return Status::Corruption("txt: expected double");
        }
        input_.RemovePrefix(parsed.ptr - input_.data());
        *out = Value::Double(v);
        return Status::OK();
      }
      case TypeKind::kString:
      case TypeKind::kBytes: {
        std::string s;
        COLMR_RETURN_IF_ERROR(ParseQuoted(&s));
        *out = schema.kind() == TypeKind::kString
                   ? Value::String(std::move(s))
                   : Value::Bytes(std::move(s));
        return Status::OK();
      }
      case TypeKind::kArray:
      case TypeKind::kRecord: {
        COLMR_RETURN_IF_ERROR(ExpectChar('['));
        std::vector<Value> elems;
        if (!TryChar(']')) {
          size_t field_index = 0;
          for (;;) {
            const Schema& element_schema =
                schema.kind() == TypeKind::kArray
                    ? *schema.element()
                    : *schema.fields()[field_index].type;
            Value v;
            COLMR_RETURN_IF_ERROR(ParseValue(element_schema, &v));
            elems.push_back(std::move(v));
            ++field_index;
            if (TryChar(']')) break;
            COLMR_RETURN_IF_ERROR(ExpectChar(','));
          }
        }
        *out = schema.kind() == TypeKind::kArray
                   ? Value::Array(std::move(elems))
                   : Value::Record(std::move(elems));
        return Status::OK();
      }
      case TypeKind::kMap: {
        COLMR_RETURN_IF_ERROR(ExpectChar('{'));
        Value::MapEntries entries;
        if (!TryChar('}')) {
          for (;;) {
            std::string key;
            COLMR_RETURN_IF_ERROR(ParseQuoted(&key));
            COLMR_RETURN_IF_ERROR(ExpectChar(':'));
            Value v;
            COLMR_RETURN_IF_ERROR(ParseValue(*schema.element(), &v));
            entries.emplace_back(std::move(key), std::move(v));
            if (TryChar('}')) break;
            COLMR_RETURN_IF_ERROR(ExpectChar(','));
          }
        }
        *out = Value::Map(std::move(entries));
        return Status::OK();
      }
    }
    return Status::Corruption("txt: unknown kind");
  }

  Status ExpectChar(char c) {
    if (input_.empty() || input_[0] != c) {
      return Status::Corruption(std::string("txt: expected '") + c + "'");
    }
    input_.RemovePrefix(1);
    return Status::OK();
  }

  bool TryChar(char c) {
    if (!input_.empty() && input_[0] == c) {
      input_.RemovePrefix(1);
      return true;
    }
    return false;
  }

  bool AtEnd() const { return input_.empty(); }

 private:
  bool TryLiteral(const char* lit) {
    const size_t len = strlen(lit);
    if (input_.size() >= len && memcmp(input_.data(), lit, len) == 0) {
      input_.RemovePrefix(len);
      return true;
    }
    return false;
  }

  Status ExpectLiteral(const char* lit) {
    if (!TryLiteral(lit)) {
      return Status::Corruption(std::string("txt: expected ") + lit);
    }
    return Status::OK();
  }

  Status ParseInteger(int64_t* out) {
    bool negative = false;
    size_t i = 0;
    if (i < input_.size() && input_[i] == '-') {
      negative = true;
      ++i;
    }
    // Unsigned accumulation: INT64_MIN's magnitude does not fit int64.
    uint64_t v = 0;
    size_t digits = 0;
    while (i < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[i]))) {
      v = v * 10 + static_cast<uint64_t>(input_[i] - '0');
      ++i;
      ++digits;
    }
    if (digits == 0) return Status::Corruption("txt: expected integer");
    input_.RemovePrefix(i);
    *out = static_cast<int64_t>(negative ? 0 - v : v);
    return Status::OK();
  }

  Status ParseQuoted(std::string* out) {
    COLMR_RETURN_IF_ERROR(ExpectChar('"'));
    out->clear();
    while (!input_.empty()) {
      char c = input_[0];
      input_.RemovePrefix(1);
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (input_.empty()) break;
        char esc = input_[0];
        input_.RemovePrefix(1);
        switch (esc) {
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          default:
            out->push_back(esc);
        }
      } else {
        out->push_back(c);
      }
    }
    return Status::Corruption("txt: unterminated string");
  }

  Slice input_;
};

}  // namespace

Status ParseTextRecord(const Schema& schema, Slice line, Value* record) {
  TextValueParser parser(line);
  std::vector<Value> values;
  values.reserve(schema.fields().size());
  for (size_t i = 0; i < schema.fields().size(); ++i) {
    if (i > 0) COLMR_RETURN_IF_ERROR(parser.ExpectChar('\t'));
    Value v;
    COLMR_RETURN_IF_ERROR(parser.ParseValue(*schema.fields()[i].type, &v));
    values.push_back(std::move(v));
  }
  if (!parser.AtEnd()) return Status::Corruption("txt: trailing field data");
  *record = Value::Record(std::move(values));
  return Status::OK();
}

Status WriteDatasetSchema(MiniHdfs* fs, const std::string& dataset_dir,
                          const Schema& schema) {
  std::unique_ptr<FileWriter> writer;
  COLMR_RETURN_IF_ERROR(fs->Create(dataset_dir + "/_schema", &writer));
  writer->Append(schema.ToString());
  return writer->Close();
}

Status ReadDatasetSchema(MiniHdfs* fs, const std::string& dataset_dir,
                         Schema::Ptr* schema, const ReadContext& context) {
  std::unique_ptr<FileReader> reader;
  COLMR_RETURN_IF_ERROR(
      fs->Open(dataset_dir + "/_schema", context, &reader));
  std::string text;
  COLMR_RETURN_IF_ERROR(reader->Read(0, reader->size(), &text));
  return Schema::Parse(text, schema);
}

Status TextWriter::Open(MiniHdfs* fs, const std::string& path,
                        Schema::Ptr schema,
                        std::unique_ptr<TextWriter>* writer) {
  COLMR_RETURN_IF_ERROR(WriteDatasetSchema(fs, path, *schema));
  std::unique_ptr<FileWriter> file;
  COLMR_RETURN_IF_ERROR(fs->Create(path + "/part-00000", &file));
  writer->reset(new TextWriter(std::move(schema), std::move(file)));
  return Status::OK();
}

Status TextWriter::WriteRecord(const Value& record) {
  std::string line = FormatTextRecord(*schema_, record);
  line += '\n';
  file_->Append(line);
  ++records_;
  return Status::OK();
}

Status TextWriter::Close() { return file_->Close(); }

namespace {

/// Reads one TXT split, snapping to line boundaries as Hadoop's
/// LineRecordReader does: a split owns the records that *start* within
/// (offset, offset + length].
class TextRecordReader final : public RowRecordReader {
 public:
  TextRecordReader(std::unique_ptr<BufferedReader> input,
                   const InputSplit& split, Schema::Ptr schema)
      : RowRecordReader(std::move(input), split, std::move(schema)) {}

  /// Skips the partial line owned by the previous split.
  Status Open() {
    COLMR_RETURN_IF_ERROR(input_->Seek(offset_));
    return offset_ == 0 ? Status::OK() : ReadLine();
  }

 private:
  Status ReadRecord(Value* value) override {
    if (input_->position() > end_ || input_->AtEnd()) {
      done_ = true;
      return Status::OK();
    }
    COLMR_RETURN_IF_ERROR(ReadLine());
    return ParseTextRecord(schema(), line_, value);
  }

  /// Reads the line at the cursor into line_.
  Status ReadLine() {
    line_.clear();
    for (;;) {
      Slice view;
      COLMR_RETURN_IF_ERROR(input_->Peek(1, &view));
      if (view.empty()) return Status::OK();  // EOF ends the last line
      for (size_t i = 0; i < view.size(); ++i) {
        if (view[i] == '\n') {
          line_.append(view.data(), i);
          input_->Consume(i + 1);
          return Status::OK();
        }
      }
      line_.append(view.data(), view.size());
      input_->Consume(view.size());
    }
  }

  std::string line_;
};

}  // namespace

Status TextInputFormat::OpenReader(MiniHdfs* fs, const JobConfig& /*config*/,
                                   const InputSplit& split,
                                   const ReadContext& context,
                                   std::unique_ptr<BufferedReader> input,
                                   std::unique_ptr<RecordReader>* reader) {
  // The dataset directory is the parent of the part file.
  const std::string& file = split.paths.at(0);
  Schema::Ptr schema;
  COLMR_RETURN_IF_ERROR(ReadDatasetSchema(
      fs, file.substr(0, file.rfind('/')), &schema, context));
  auto text = std::make_unique<TextRecordReader>(std::move(input), split,
                                                 std::move(schema));
  COLMR_RETURN_IF_ERROR(text->Open());
  *reader = std::move(text);
  return Status::OK();
}

}  // namespace colmr
