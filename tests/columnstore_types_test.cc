// Foundation tests: Value semantics, Schema construction/validation,
// ColumnVector operations and Batch assembly.
#include <gtest/gtest.h>

#include "columnstore/batch.h"
#include "columnstore/schema.h"
#include "columnstore/value.h"

namespace pdtstore {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value(5).type(), TypeId::kInt64);
  EXPECT_EQ(Value(5.0).type(), TypeId::kDouble);
  EXPECT_EQ(Value("x").type(), TypeId::kString);
  EXPECT_EQ(Value(int64_t{5}).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, Comparison) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_EQ(Value(2), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value(1.0), Value(1.5));
  EXPECT_EQ(Value(-3).Compare(Value(7)), -1);
  EXPECT_EQ(Value(7).Compare(Value(-3)), 1);
}

TEST(ValueTest, ToStringQuotesStrings) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
  EXPECT_EQ(TupleToString({Value(1), Value("a")}), "(1, 'a')");
}

TEST(ValueTest, CompareTuplesLexicographic) {
  EXPECT_EQ(CompareTuples({Value(1), Value(2)}, {Value(1), Value(2)}), 0);
  EXPECT_LT(CompareTuples({Value(1), Value(1)}, {Value(1), Value(2)}), 0);
  EXPECT_GT(CompareTuples({Value(2)}, {Value(1), Value(9)}), 0);
  // Prefix is smaller.
  EXPECT_LT(CompareTuples({Value(1)}, {Value(1), Value(0)}), 0);
}

TEST(SchemaTest, MakeValidations) {
  EXPECT_FALSE(Schema::Make({}, {0}).ok());  // no columns
  EXPECT_FALSE(
      Schema::Make({{"a", TypeId::kInt64}}, {}).ok());  // no sort key
  EXPECT_FALSE(Schema::Make({{"a", TypeId::kInt64}}, {1}).ok());  // range
  EXPECT_FALSE(Schema::Make({{"a", TypeId::kInt64},
                             {"a", TypeId::kString}},
                            {0})
                   .ok());  // dup name
  EXPECT_FALSE(Schema::Make({{"a", TypeId::kInt64}}, {0, 0}).ok());  // dup sk
  auto ok = Schema::Make(
      {{"a", TypeId::kInt64}, {"b", TypeId::kString}}, {1, 0});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_columns(), 2u);
  EXPECT_TRUE(ok->IsSortKeyColumn(0));
  EXPECT_TRUE(ok->IsSortKeyColumn(1));
}

TEST(SchemaTest, TupleValidation) {
  auto s = Schema::Make(
      {{"a", TypeId::kInt64}, {"b", TypeId::kString}}, {0});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s->ValidateTuple({Value(1), Value("x")}).ok());
  EXPECT_FALSE(s->ValidateTuple({Value(1)}).ok());                // arity
  EXPECT_FALSE(s->ValidateTuple({Value("x"), Value("y")}).ok());  // type
}

TEST(SchemaTest, SortKeyExtractionAndComparison) {
  auto s = Schema::Make({{"a", TypeId::kInt64},
                         {"b", TypeId::kString},
                         {"c", TypeId::kInt64}},
                        {2, 0});
  ASSERT_TRUE(s.ok());
  Tuple t1 = {Value(1), Value("x"), Value(5)};
  Tuple t2 = {Value(9), Value("y"), Value(5)};
  auto key = s->ExtractSortKey(t1);
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], Value(5));
  EXPECT_EQ(key[1], Value(1));
  EXPECT_LT(s->CompareSortKey(t1, t2), 0);  // same c, a 1<9
  EXPECT_EQ(s->CompareTupleToKey(t1, {Value(5)}), 0);  // prefix match
  EXPECT_LT(s->CompareTupleToKey(t1, {Value(6)}), 0);
}

TEST(SchemaTest, ColumnIndexLookup) {
  auto s = Schema::Make(
      {{"a", TypeId::kInt64}, {"b", TypeId::kString}}, {0});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s->ColumnIndex("b"), 1u);
  EXPECT_EQ(s->ColumnIndex("zzz").status().code(), StatusCode::kNotFound);
}

TEST(ColumnVectorTest, AppendGetSetAllTypes) {
  for (TypeId type :
       {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ColumnVector col(type);
    Value a = type == TypeId::kInt64
                  ? Value(1)
                  : (type == TypeId::kDouble ? Value(1.5) : Value("a"));
    Value b = type == TypeId::kInt64
                  ? Value(2)
                  : (type == TypeId::kDouble ? Value(2.5) : Value("b"));
    col.Append(a);
    col.Append(b);
    EXPECT_EQ(col.size(), 2u);
    EXPECT_EQ(col.GetValue(0), a);
    col.SetValue(0, b);
    EXPECT_EQ(col.GetValue(0), b);
    EXPECT_EQ(col.CompareAt(0, col, 1), 0);
    ColumnVector other(type);
    other.AppendFrom(col, 1);
    other.AppendRange(col, 0, 2);
    EXPECT_EQ(other.size(), 3u);
    EXPECT_GT(col.ByteSize(), 0u);
  }
}

TEST(ColumnVectorTest, AppendRun) {
  ColumnVector col(TypeId::kInt64);
  col.AppendRun(Value(7), 5);
  EXPECT_EQ(col.size(), 5u);
  EXPECT_EQ(col.GetValue(4), Value(7));
}

TEST(ColumnVectorTest, DictAppendsIntoPlainColumnGrowGeometrically) {
  // A build side crossing chunk boundaries appends batches from
  // alternating dictionaries into one column: after the first foreign
  // dictionary the column is plain, and every later append must ride
  // vector growth instead of reallocating to the exact new size.
  auto make_dict = [](std::vector<std::string> values) {
    auto dict = std::make_shared<StringDict>();
    for (const std::string& v : values) {
      dict->hashes.push_back(HashBytes(v.data(), v.size()));
    }
    dict->values = std::move(values);
    return std::shared_ptr<const StringDict>(std::move(dict));
  };
  constexpr size_t kBatches = 256;
  constexpr size_t kRows = 1024;
  std::vector<ColumnVector> sources;
  for (auto dict : {make_dict({"a", "b", "c"}), make_dict({"c", "d"})}) {
    ColumnVector src(TypeId::kString);
    src.AdoptDict(dict);
    for (size_t i = 0; i < kRows; ++i) {
      src.codes().push_back(static_cast<uint32_t>(i % dict->values.size()));
    }
    sources.push_back(std::move(src));
  }
  ColumnVector col(TypeId::kString);
  const std::string* last = nullptr;
  size_t reallocations = 0;
  for (size_t b = 0; b < kBatches; ++b) {
    col.AppendRange(sources[b % 2], 0, kRows);
    if (col.is_dict()) continue;
    const std::string* data =
        static_cast<const ColumnVector&>(col).strings().data();
    reallocations += data != last;
    last = data;
  }
  ASSERT_EQ(col.size(), kBatches * kRows);
  EXPECT_EQ(col.StringAt(kRows), "c");  // second batch: dictionary 2
  const size_t log2_rows = 18;  // 256 * 1024 == 1 << 18
  EXPECT_LE(reallocations, 2 * log2_rows);
}

TEST(BatchTest, ForSchemaAndRowAccess) {
  auto s = Schema::Make(
      {{"a", TypeId::kInt64}, {"b", TypeId::kString}}, {0});
  ASSERT_TRUE(s.ok());
  Batch full = Batch::ForSchema(*s);
  EXPECT_EQ(full.num_columns(), 2u);
  EXPECT_EQ(full.column_ids(), (std::vector<ColumnId>{0, 1}));
  Batch proj = Batch::ForSchema(*s, {1});
  EXPECT_EQ(proj.num_columns(), 1u);
  EXPECT_EQ(proj.IndexOfColumn(1), 0);
  EXPECT_EQ(proj.IndexOfColumn(0), -1);

  full.column(0).Append(Value(1));
  full.column(1).Append(Value("x"));
  EXPECT_EQ(full.num_rows(), 1u);
  EXPECT_EQ(full.RowAsTuple(0), (Tuple{Value(1), Value("x")}));
  Batch copy = Batch::ForSchema(*s);
  copy.AppendRow(full, 0);
  EXPECT_EQ(copy.num_rows(), 1u);
  copy.Clear();
  EXPECT_EQ(copy.num_rows(), 0u);
}

}  // namespace
}  // namespace pdtstore
