#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "serde/boxed.h"
#include "serde/encoding.h"
#include "serde/record.h"
#include "serde/schema.h"
#include "serde/value.h"

namespace colmr {
namespace {

TEST(SchemaTest, PrimitivesParse) {
  for (const char* name :
       {"null", "bool", "int", "long", "double", "string", "bytes"}) {
    Schema::Ptr schema;
    ASSERT_TRUE(Schema::Parse(name, &schema).ok()) << name;
    EXPECT_TRUE(schema->is_primitive());
  }
}

TEST(SchemaTest, ParseToStringRoundTrip) {
  const std::string text =
      "record URLInfo { url: string, srcUrl: string, fetchTime: long, "
      "inlink: array<string>, metadata: map<string>, "
      "annotations: map<string>, content: bytes }";
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse(text, &schema).ok());
  EXPECT_EQ(schema->kind(), TypeKind::kRecord);
  EXPECT_EQ(schema->record_name(), "URLInfo");
  EXPECT_EQ(schema->fields().size(), 7u);
  EXPECT_EQ(schema->FieldIndex("metadata"), 4);
  EXPECT_EQ(schema->FieldIndex("nope"), -1);

  Schema::Ptr reparsed;
  ASSERT_TRUE(Schema::Parse(schema->ToString(), &reparsed).ok());
  EXPECT_TRUE(schema->Equals(*reparsed));
}

TEST(SchemaTest, NestedRecordsAndTwoArgMaps) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse(
                  "record Outer { inner: record Inner { xs: array<int> }, "
                  "meta: map<string,string> }",
                  &schema)
                  .ok());
  EXPECT_EQ(schema->fields()[0].type->kind(), TypeKind::kRecord);
  EXPECT_EQ(schema->fields()[1].type->kind(), TypeKind::kMap);
  EXPECT_EQ(schema->fields()[1].type->element()->kind(), TypeKind::kString);
}

TEST(SchemaTest, ParseErrors) {
  Schema::Ptr schema;
  EXPECT_TRUE(Schema::Parse("flavor", &schema).IsInvalidArgument());
  EXPECT_TRUE(Schema::Parse("array<int", &schema).IsInvalidArgument());
  EXPECT_TRUE(Schema::Parse("record R { a: int a2 }", &schema)
                  .IsInvalidArgument());
  EXPECT_TRUE(Schema::Parse("record R { a: int, a: int }", &schema)
                  .IsInvalidArgument());
  EXPECT_TRUE(Schema::Parse("int extra", &schema).IsInvalidArgument());
}

TEST(SchemaTest, WithFieldAppends) {
  Schema::Ptr base;
  ASSERT_TRUE(Schema::Parse("record R { a: int }", &base).ok());
  Schema::Ptr widened = Schema::WithField(base, {"b", Schema::String()});
  EXPECT_EQ(widened->fields().size(), 2u);
  EXPECT_EQ(widened->FieldIndex("b"), 1);
  EXPECT_FALSE(base->Equals(*widened));
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int32(-7).int32_value(), -7);
  EXPECT_EQ(Value::Int64(1ll << 40).int64_value(), 1ll << 40);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_EQ(Value::Bytes("\x01\x02").bytes_value(), "\x01\x02");
  Value arr = Value::Array({Value::Int32(1), Value::Int32(2)});
  EXPECT_EQ(arr.elements().size(), 2u);
}

TEST(ValueTest, MapLookup) {
  Value m = Value::Map({{"content-type", Value::String("text/html")},
                        {"server", Value::String("apache")}});
  ASSERT_NE(m.FindMapEntry("server"), nullptr);
  EXPECT_EQ(m.FindMapEntry("server")->string_value(), "apache");
  EXPECT_EQ(m.FindMapEntry("missing"), nullptr);
}

TEST(ValueTest, CompareTotalOrder) {
  EXPECT_EQ(Value::Int32(3).Compare(Value::Int32(3)), 0);
  EXPECT_LT(Value::Int32(2).Compare(Value::Int32(3)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_LT(Value::Array({Value::Int32(1)})
                .Compare(Value::Array({Value::Int32(1), Value::Int32(2)})),
            0);
  // Mixed kinds order by kind tag, giving a stable shuffle sort.
  EXPECT_NE(Value::Int32(1).Compare(Value::String("1")), 0);
  EXPECT_TRUE(Value::String("a") < Value::String("b"));
}

// Doubles order by IEEE 754 totalOrder, so shuffle keys have one strict
// weak order even with NaN and signed zeros among them. Each value
// compares equal to itself (NaN included) and antisymmetrically to the
// others.
TEST(ValueTest, DoubleCompareIsIeeeTotalOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double ascending[] = {-nan,   -inf, -1.5e300, -1.0,    -1e-300, -0.0,
                              0.0,    1e-300, 1.0,    1.5e300, inf,     nan};
  for (size_t i = 0; i < std::size(ascending); ++i) {
    for (size_t j = 0; j < std::size(ascending); ++j) {
      const int expected = i == j ? 0 : (i < j ? -1 : 1);
      const Value a = Value::Double(ascending[i]);
      EXPECT_EQ(a.Compare(Value::Double(ascending[j])), expected)
          << i << " vs " << j;
    }
  }
  // Equal exactly when the bits are: NaNs with distinct payloads differ.
  const double payload =
      std::bit_cast<double>(std::bit_cast<uint64_t>(nan) | 1);
  EXPECT_NE(Value::Double(payload).Compare(Value::Double(nan)), 0);
}

TEST(ValueTest, ToStringEscapes) {
  EXPECT_EQ(Value::String("a\tb\"c\\d\ne").ToString(),
            "\"a\\tb\\\"c\\\\d\\ne\"");
  EXPECT_EQ(Value::Array({Value::Int32(1), Value::Null()}).ToString(),
            "[1,null]");
  EXPECT_EQ(Value::Map({{"k", Value::Int32(5)}}).ToString(), "{\"k\":5}");
}

Schema::Ptr ComplexSchema() {
  Schema::Ptr schema;
  Status s = Schema::Parse(
      "record T { b: bool, i: int, l: long, d: double, s: string, "
      "raw: bytes, xs: array<int>, m: map<string>, "
      "nested: record N { a: array<map<int>> } }",
      &schema);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return schema;
}

Value MakeComplexValue(Random* rng) {
  std::vector<Value> xs;
  for (uint64_t i = rng->Uniform(5); i > 0; --i) {
    xs.push_back(Value::Int32(static_cast<int32_t>(rng->Next())));
  }
  Value::MapEntries m;
  for (uint64_t i = rng->Uniform(4); i > 0; --i) {
    m.emplace_back(rng->NextWord(4), Value::String(rng->NextString(0, 20)));
  }
  Value::MapEntries inner_map;
  inner_map.emplace_back("k", Value::Int32(7));
  return Value::Record({
      Value::Bool(rng->OneIn(2)),
      Value::Int32(static_cast<int32_t>(rng->Next())),
      Value::Int64(static_cast<int64_t>(rng->Next())),
      Value::Double(rng->NextDouble() * 1e9),
      Value::String(rng->NextString(0, 40)),
      Value::Bytes(rng->NextString(0, 40)),
      Value::Array(std::move(xs)),
      Value::Map(std::move(m)),
      Value::Record({Value::Array({Value::Map(inner_map)})}),
  });
}

class EncodingRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(EncodingRoundTripTest, ComplexValuesRoundTrip) {
  Random rng(GetParam());
  Schema::Ptr schema = ComplexSchema();
  for (int i = 0; i < 50; ++i) {
    Value value = MakeComplexValue(&rng);
    Buffer encoded;
    ASSERT_TRUE(EncodeValue(*schema, value, &encoded).ok());
    EXPECT_EQ(encoded.size(), EncodedSize(*schema, value));
    Slice cursor = encoded.AsSlice();
    Value decoded;
    ASSERT_TRUE(DecodeValue(*schema, &cursor, &decoded).ok());
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(value.Compare(decoded), 0);

    // SkipValue must consume exactly the same bytes as DecodeValue.
    Slice skip_cursor = encoded.AsSlice();
    SerdeTally tally;
    ASSERT_TRUE(SkipValue(*schema, &skip_cursor, &tally).ok());
    EXPECT_TRUE(skip_cursor.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingRoundTripTest,
                         ::testing::Range(1, 9));

TEST(EncodingTest, KindMismatchRejected) {
  Buffer b;
  EXPECT_TRUE(
      EncodeValue(*Schema::String(), Value::Int32(1), &b).IsInvalidArgument());
}

TEST(EncodingTest, Int32WidensToInt64Column) {
  Buffer b;
  ASSERT_TRUE(EncodeValue(*Schema::Int64(), Value::Int32(42), &b).ok());
  Slice cursor = b.AsSlice();
  Value v;
  ASSERT_TRUE(DecodeValue(*Schema::Int64(), &cursor, &v).ok());
  EXPECT_EQ(v.int64_value(), 42);
}

TEST(EncodingTest, TruncatedDecodeIsCorruption) {
  Schema::Ptr schema = ComplexSchema();
  Random rng(99);
  Value value = MakeComplexValue(&rng);
  Buffer encoded;
  ASSERT_TRUE(EncodeValue(*schema, value, &encoded).ok());
  for (size_t cut : {size_t{0}, size_t{1}, encoded.size() / 2,
                     encoded.size() - 1}) {
    Slice cursor = encoded.AsSlice().Prefix(cut);
    Value decoded;
    EXPECT_TRUE(DecodeValue(*schema, &cursor, &decoded).IsCorruption());
  }
}

TEST(EncodingTest, TaggedRoundTrip) {
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    Value value = MakeComplexValue(&rng);
    Buffer encoded;
    EncodeTaggedValue(value, &encoded);
    EXPECT_EQ(encoded.size(), TaggedEncodedSize(value));
    Slice cursor = encoded.AsSlice();
    Value decoded;
    ASSERT_TRUE(DecodeTaggedValue(&cursor, &decoded).ok());
    EXPECT_TRUE(cursor.empty());
    EXPECT_EQ(value.Compare(decoded), 0);
  }
}

TEST(RecordTest, EagerRecordGet) {
  Schema::Ptr schema;
  ASSERT_TRUE(Schema::Parse("record R { a: int, b: string }", &schema).ok());
  EagerRecord record(schema,
                     Value::Record({Value::Int32(1), Value::String("x")}));
  const Value* v = nullptr;
  ASSERT_TRUE(record.Get("b", &v).ok());
  EXPECT_EQ(v->string_value(), "x");
  EXPECT_TRUE(record.Get("c", &v).IsNotFound());
  EXPECT_EQ(record.GetOrDie("a").int32_value(), 1);
}

TEST(BoxedTest, MatchesNativeDecode) {
  Schema::Ptr schema = ComplexSchema();
  Random rng(31);
  for (int i = 0; i < 20; ++i) {
    Value value = MakeComplexValue(&rng);
    Buffer encoded;
    ASSERT_TRUE(EncodeValue(*schema, value, &encoded).ok());

    Slice cursor = encoded.AsSlice();
    std::unique_ptr<BoxedValue> boxed;
    ASSERT_TRUE(DecodeBoxed(*schema, &cursor, &boxed).ok());
    EXPECT_TRUE(cursor.empty());
    // The boxed tree visits every decoded value; a stable checksum across
    // runs of the same input proves full materialization.
    const uint64_t c1 = boxed->Checksum();
    Slice cursor2 = encoded.AsSlice();
    std::unique_ptr<BoxedValue> boxed2;
    ASSERT_TRUE(DecodeBoxed(*schema, &cursor2, &boxed2).ok());
    EXPECT_EQ(c1, boxed2->Checksum());
  }
}

TEST(BoxedTest, BoxedMapHoldsEntries) {
  Schema::Ptr schema = Schema::Map(Schema::Int32());
  Value m = Value::Map({{"a", Value::Int32(1)}, {"b", Value::Int32(2)}});
  Buffer encoded;
  ASSERT_TRUE(EncodeValue(*schema, m, &encoded).ok());
  Slice cursor = encoded.AsSlice();
  std::unique_ptr<BoxedValue> boxed;
  ASSERT_TRUE(DecodeBoxed(*schema, &cursor, &boxed).ok());
  auto* map = dynamic_cast<BoxedMap*>(boxed.get());
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->entries.size(), 2u);
  EXPECT_EQ(dynamic_cast<BoxedInt*>(map->entries.at("b").get())->value, 2);
}

}  // namespace
}  // namespace colmr
