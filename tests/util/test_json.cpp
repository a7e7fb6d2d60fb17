// util/json.hpp: the minimal JSON parser the scenario engine reads its
// files with.  Covers the value model, typed-accessor errors, escapes,
// numbers, document-order objects, and parse-error positions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace tb::util::json {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_EQ(parse("true").as_bool(), true);
  EXPECT_EQ(parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(parse("-1e3").as_number(), -1000.0);
  EXPECT_EQ(parse("42").as_int(), 42);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, IntRejectsFractions) {
  EXPECT_THROW((void)parse("1.5").as_int(), std::runtime_error);
  EXPECT_EQ(parse("2.0").as_int(), 2);  // integral value, fine
}

TEST(Json, ArraysAndNesting) {
  const Value v = parse("[1, [2, 3], {\"a\": 4}]");
  const Array& a = v.as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].as_int(), 1);
  EXPECT_EQ(a[1].as_array()[1].as_int(), 3);
  EXPECT_EQ(a[2].get("a").as_int(), 4);
}

TEST(Json, ObjectsKeepDocumentOrder) {
  const Value v = parse(R"({"z": 1, "a": 2, "m": 3})");
  const Object& o = v.as_object();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
}

TEST(Json, FindAndGet) {
  const Value v = parse(R"({"n": 32, "op": "jacobi"})");
  EXPECT_EQ(v.find("missing"), nullptr);
  ASSERT_NE(v.find("n"), nullptr);
  EXPECT_EQ(v.get("op").as_string(), "jacobi");
  try {
    (void)v.get("steps");
    FAIL() << "get() on a missing key must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("steps"), std::string::npos)
        << "error should name the missing key";
  }
}

TEST(Json, DuplicateKeysLastWins) {
  const Value v = parse(R"({"n": 1, "n": 2})");
  EXPECT_EQ(v.get("n").as_int(), 2);
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\n")").as_string(), "a\"b\\c/d\n");
  EXPECT_EQ(parse(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, TypeMismatchesThrow) {
  EXPECT_THROW((void)parse("1").as_string(), std::runtime_error);
  EXPECT_THROW((void)parse("\"x\"").as_number(), std::runtime_error);
  EXPECT_THROW((void)parse("[1]").as_object(), std::runtime_error);
  EXPECT_THROW((void)parse("{}").as_array(), std::runtime_error);
}

TEST(Json, ParseErrorsCarryPosition) {
  try {
    (void)parse("{\n  \"a\": ,\n}", "test.json");
    FAIL() << "malformed JSON must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2"), std::string::npos)
        << "error should carry the line number: " << msg;
  }
}

TEST(Json, RejectsTrailingGarbageAndPartialLiterals) {
  EXPECT_THROW((void)parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)parse("tru"), std::runtime_error);
  EXPECT_THROW((void)parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)parse(""), std::runtime_error);
  EXPECT_THROW((void)parse("\"unterminated"), std::runtime_error);
}

TEST(Json, NestingDepthIsBounded) {
  // 256 open levels parse; the 257th fails at its own bracket with the
  // usual file:line:col message instead of overflowing the stack.
  EXPECT_NO_THROW(
      (void)parse(std::string(256, '[') + std::string(256, ']')));
  try {
    (void)parse(std::string(100000, '['), "deep.json");
    FAIL() << "100000 nested arrays must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deep.json:1:257: nesting deeper than 256"),
              std::string::npos)
        << msg;
  }
  EXPECT_THROW((void)parse(std::string(300, '{')), std::runtime_error);
}

TEST(Json, ParseFileMissingThrows) {
  EXPECT_THROW((void)parse_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace tb::util::json
