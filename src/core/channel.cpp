#include "core/channel.hpp"

#include <stdexcept>

namespace spider::core {

Channel::Channel(Amount deposit_a, Amount deposit_b)
    : balance_{deposit_a, deposit_b}, total_(deposit_a + deposit_b) {
  if (deposit_a < 0 || deposit_b < 0) {
    throw std::invalid_argument("Channel: negative deposit");
  }
  if (total_ == 0) {
    throw std::invalid_argument("Channel: empty channel");
  }
}

void Channel::deposit(Side side, Amount amount) {
  if (amount <= 0) {
    throw std::invalid_argument("Channel::deposit: amount must be > 0");
  }
  balance_[static_cast<int>(side)] += amount;
  total_ += amount;
  assert(conserves_funds());
}

}  // namespace spider::core
