#pragma once
// Shared data-plane types for the Spider payment channel network.
//
// Money is a 64-bit fixed-point amount in *milli-units* (1/1000 of one
// XRP-like currency unit). Fixed point keeps every conservation invariant
// exact -- the test suite checks that no milli-unit is ever created or
// destroyed by the data plane. Fluid-model rates remain `double`.

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace spider::core {

using graph::ArcId;
using graph::EdgeId;
using graph::NodeId;

/// Fixed-point money: milli-units of the network currency.
using Amount = std::int64_t;

/// Milli-units per currency unit.
inline constexpr Amount kAmountScale = 1000;

/// Converts whole currency units (e.g. XRP) to an Amount, rounding to the
/// nearest milli-unit. Throws std::invalid_argument on NaN, infinity or
/// a value outside the Amount range (casting one to int64 is undefined).
[[nodiscard]] constexpr Amount from_units(double units) {
  const double scaled = units * static_cast<double>(kAmountScale);
  const double rounded = scaled >= 0 ? scaled + 0.5 : scaled - 0.5;
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!(rounded >= -kLimit && rounded < kLimit)) {  // NaN fails too
    throw std::invalid_argument(
        "from_units: amount is not finite or outside the Amount range");
  }
  return static_cast<Amount>(rounded);
}

/// Converts an Amount back to fractional currency units.
[[nodiscard]] constexpr double to_units(Amount a) {
  return static_cast<double>(a) / static_cast<double>(kAmountScale);
}

/// Renders "12.345" style currency strings for logs.
[[nodiscard]] std::string amount_to_string(Amount a);

/// Simulation time in seconds.
using TimePoint = double;
inline constexpr TimePoint kNever = std::numeric_limits<TimePoint>::infinity();

/// True for a usable duration or horizon: positive and finite (NaN and
/// infinity fail).
[[nodiscard]] inline bool positive_finite(double x) {
  return x > 0 && x < std::numeric_limits<double>::infinity();
}

/// Dense payment identifier, assigned in arrival order.
using PaymentId = std::uint64_t;
inline constexpr PaymentId kInvalidPayment =
    std::numeric_limits<PaymentId>::max();

/// A transaction unit (the "packet" of Spider, §4): `seq`-th MTU-bounded
/// slice of payment `payment`.
struct TxUnitId {
  PaymentId payment = kInvalidPayment;
  std::uint32_t seq = 0;

  friend bool operator==(const TxUnitId&, const TxUnitId&) = default;
  friend auto operator<=>(const TxUnitId&, const TxUnitId&) = default;
};

/// Payment delivery semantics (paper §4.1).
enum class PaymentKind : std::uint8_t {
  /// Either fully delivered or no funds move (AMP-style base key).
  kAtomic,
  /// May be partially delivered; the sender learns exactly how much.
  kNonAtomic,
};

enum class PaymentStatus : std::uint8_t {
  kPending,    // not yet fully delivered, still before its deadline
  kSucceeded,  // fully delivered
  kPartial,    // deadline passed with partial delivery (non-atomic only)
  kFailed,     // nothing delivered by the deadline / atomic attempt failed
};

[[nodiscard]] std::string to_string(PaymentStatus s);
[[nodiscard]] std::string to_string(PaymentKind k);

/// An application-level payment request handed to the transport (§4.1:
/// destination, amount, deadline, maximum acceptable routing fee).
struct PaymentRequest {
  NodeId src = graph::kInvalidNode;
  NodeId dst = graph::kInvalidNode;
  Amount amount = 0;
  TimePoint arrival = 0;
  TimePoint deadline = kNever;
  Amount max_fee = std::numeric_limits<Amount>::max();
  PaymentKind kind = PaymentKind::kNonAtomic;

  friend bool operator==(const PaymentRequest&,
                         const PaymentRequest&) = default;
};

}  // namespace spider::core
