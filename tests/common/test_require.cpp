/// Precondition messages are wire bytes: the service returns what() as the
/// body of a BadRequest response. These tests pin the text of both require
/// overloads and of the messages built only when a check fails.
#include "axc/common/require.hpp"

#include <gtest/gtest.h>

#include <string>

#include "axc/arith/gear.hpp"
#include "axc/arith/lpa_adders.hpp"
#include "axc/logic/netlist.hpp"

namespace axc {
namespace {

/// what() of the exception of type E that \p body throws ("" if none).
template <typename E, typename Body>
std::string thrown_text(Body&& body) {
  try {
    body();
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

TEST(Require, LiteralAndStringOverloadsThrowTheSameText) {
  const std::string built = std::string("full_add: ") + "inputs";
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [] { require(false, "full_add: inputs"); }),
            "full_add: inputs");
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [&built] { require(false, built); }),
            "full_add: inputs");
  EXPECT_EQ(thrown_text<std::out_of_range>(
                [] { require_in_range(false, "no such net"); }),
            "no such net");
  EXPECT_EQ(thrown_text<std::out_of_range>(
                [] { require_in_range(false, std::string("no such net")); }),
            "no such net");
  EXPECT_NO_THROW(require(true, "unused"));
  EXPECT_NO_THROW(require_in_range(true, built));
}

TEST(Require, MessagesBuiltOnFailureKeepTheirText) {
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [] { arith::GeArAdder adder({8, 3, 3}); }),
            "GeAr(N=8,R=3,P=3): invalid configuration (need R >= 1, "
            "R + P <= N, (N - L) divisible by R)");
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [] { arith::LoaAdder adder(64, 0); }),
            "LoaAdder: width must be in [1, 63]");
  EXPECT_EQ(thrown_text<std::invalid_argument>(
                [] { arith::TruncatedAdder adder(8, 9); }),
            "TruncatedAdder: approximate part exceeds the width");
  logic::Netlist netlist;
  const logic::NetId a = netlist.add_input("a");
  EXPECT_EQ(thrown_text<std::invalid_argument>([&] {
              netlist.add_gate(logic::CellType::And2, a);
            }),
            "Netlist::add_gate: wrong input count for AND2");
}

}  // namespace
}  // namespace axc
