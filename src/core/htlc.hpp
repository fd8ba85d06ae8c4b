#pragma once
// Hash time-locked contract (HTLC) machinery (paper §2, §4.1).
//
// Every transaction unit is locked by a hash lock whose preimage ("key")
// the *sender* generates -- one fresh key per unit, which is what enables
// non-atomic payments: the sender releases keys only for units the
// receiver confirmed before the deadline. Atomic payments derive all unit
// keys from a single base key via additive secret sharing (AMP [1]): the
// receiver can unlock nothing until every share has arrived.
//
// We model the cryptography with a 64-bit one-way-ish mixer: collision
// resistance at crypto strength is irrelevant to the evaluation, but the
// *protocol state machine* (commit -> confirm -> key release -> settle)
// is fully faithful. See DESIGN.md §2 for the substitution note.

#include <cstdint>
#include <optional>
#include <random>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace spider::core {

/// Secret key (hash-lock preimage).
using Preimage = std::uint64_t;
/// Public hash of a preimage.
using LockHash = std::uint64_t;

/// One-way mixing function standing in for SHA-256 (splitmix64 finalizer).
[[nodiscard]] constexpr LockHash hash_preimage(Preimage key) {
  std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Checks a candidate preimage against a hash lock.
[[nodiscard]] constexpr bool unlocks(Preimage key, LockHash lock) {
  return hash_preimage(key) == lock;
}

/// Per-sender key registry: generates, stores, and releases unit keys.
class HtlcKeyRing {
 public:
  explicit HtlcKeyRing(std::uint64_t seed) : rng_(seed) {}

  /// Generates a fresh independent key for a non-atomic unit and returns
  /// its hash lock.
  LockHash create_lock(TxUnitId unit);

  /// Derives the unit keys of an atomic payment from one base key using
  /// additive secret sharing: the base key equals the XOR of all unit
  /// keys, so no subset short of all of them reveals it. Returns the per-
  /// unit hash locks; the payment unlocks via `release_atomic` only.
  std::vector<LockHash> create_atomic_locks(PaymentId payment,
                                            std::uint32_t unit_count);

  /// Releases the key for a confirmed non-atomic unit (sender decides,
  /// §4.1 "Non-atomic payments"). Returns nullopt if unknown or already
  /// released.
  std::optional<Preimage> release(TxUnitId unit);

  /// Releases the atomic base key iff *all* units of the payment have been
  /// confirmed (`confirmed` count equals the unit count at creation).
  std::optional<Preimage> release_atomic(PaymentId payment,
                                         std::uint32_t confirmed_units);

  /// Hash lock previously created for `unit` (nullopt if none).
  [[nodiscard]] std::optional<LockHash> lock_of(TxUnitId unit) const;

 private:
  struct UnitKey {
    Preimage key;
    bool released = false;
  };
  struct AtomicPayment {
    Preimage base_key;
    std::uint32_t unit_count;
    bool released = false;
  };
  struct UnitIdHash {
    std::size_t operator()(const TxUnitId& u) const {
      return std::hash<std::uint64_t>{}(u.payment * 0x1000003ull + u.seq);
    }
  };

  std::mt19937_64 rng_;
  // Keyed lookups only (find/operator[]), never iterated; draw order
  // comes from rng_, not table order.
  // spider-lint: allow(unordered-container)
  std::unordered_map<TxUnitId, UnitKey, UnitIdHash> unit_keys_;
  // Keyed lookups only, like unit_keys_; never iterated.
  std::unordered_map<PaymentId, AtomicPayment> atomic_;  // spider-lint: allow(unordered-container)
};

}  // namespace spider::core
