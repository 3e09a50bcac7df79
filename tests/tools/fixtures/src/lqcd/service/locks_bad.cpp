// lock-discipline fixture: the classic AB/BA inversion plus an
// unguarded access to a mutex-protected member.

#include <mutex>

class Account {
 public:
  void ab() {
    std::lock_guard<std::mutex> g1(mu_a_);
    std::lock_guard<std::mutex> g2(mu_b_);  // EXPECT: lock-discipline
    balance_ = balance_ + 1;
  }

  void ba() {
    std::lock_guard<std::mutex> g2(mu_b_);
    std::lock_guard<std::mutex> g1(mu_a_);
    balance_ = balance_ + 1;
  }

  long peek() {
    return balance_;  // EXPECT: lock-discipline
  }

  long peek_safe() {
    std::lock_guard<std::mutex> g(mu_a_);
    return balance_;
  }

  // A unique_lock released around a braced block and taken again still
  // guards the access after the relock.
  void relock_after_block(long delta) {
    std::unique_lock<std::mutex> lk(mu_a_);
    balance_ = balance_ + 1;
    lk.unlock();
    long scaled = 0;
    if (delta > 0) {
      scaled = 2 * delta;
    }
    lk.lock();
    balance_ = balance_ + scaled;
  }

  long total_locked() {
    // `_locked` names the caller-holds-the-lock contract: exempt.
    return balance_;
  }

 private:
  std::mutex mu_a_;
  std::mutex mu_b_;
  long balance_ = 0;
};
