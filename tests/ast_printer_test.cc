/// Round-trip tests: printing a term and re-parsing it must yield an
/// equal term. Error messages quote terms and subgoals through this
/// printer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/parser/parser.h"

namespace gluenail {
namespace {

void ExpectTermRoundTrip(std::string_view src) {
  Result<ast::Term> first = ParseTermText(src);
  ASSERT_TRUE(first.ok()) << first.status();
  std::string printed = ast::ToString(*first);
  Result<ast::Term> second = ParseTermText(printed);
  ASSERT_TRUE(second.ok()) << "reparse of \"" << printed
                           << "\": " << second.status();
  EXPECT_TRUE(first->Equals(*second)) << printed;
}

TEST(AstPrinterTest, TermRoundTrips) {
  ExpectTermRoundTrip("wilson");
  ExpectTermRoundTrip("X");
  ExpectTermRoundTrip("_");
  ExpectTermRoundTrip("42");
  ExpectTermRoundTrip("-7");
  ExpectTermRoundTrip("2.5");
  ExpectTermRoundTrip("'quoted atom'");
  ExpectTermRoundTrip("f(X,1,g(a))");
  ExpectTermRoundTrip("students(cs99)(wilson)");
  ExpectTermRoundTrip("E(Y,Z)");
  ExpectTermRoundTrip("A+B*C");
  ExpectTermRoundTrip("(A+B)*C");
  ExpectTermRoundTrip("X mod 3");
  ExpectTermRoundTrip("min(T)");
}

TEST(AstPrinterTest, SubgoalsPrintAsWritten) {
  Result<ast::Statement> s = ParseStatement(
      "p(K) += q(K,D) & !r(K) & K != 3 & group_by(K) & --s(K,D) & ++t(K).");
  ASSERT_TRUE(s.ok()) << s.status();
  std::vector<std::string> printed;
  for (const ast::Subgoal& g : s->assignment().body) {
    printed.push_back(ast::ToString(g));
  }
  EXPECT_EQ(printed,
            (std::vector<std::string>{"q(K,D)", "!r(K)", "K != 3",
                                      "group_by(K)", "--s(K,D)", "++t(K)"}));
}

TEST(AstPrinterTest, QuotedSymbolsStayQuoted) {
  Result<ast::Term> t = ParseTermText("'Hello World'");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(ast::ToString(*t), "'Hello World'");
}

}  // namespace
}  // namespace gluenail
