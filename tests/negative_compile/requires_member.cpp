// Negative-compile case: calling a REQUIRES(mu_)-annotated helper without
// holding the member mutex — the repo's private-helper idiom (WaveFormer's
// flush_deadline / cut_wave), where the caller owns the locking and the
// helper declares the precondition.
#include "sync/mutex.h"

namespace {

class Ledger {
 public:
  void post(int v) {
    const nttpim::sync::MutexLock lk(mu_);
    apply(v);
  }
#ifdef NTTPIM_NEGATIVE
  void post_unlocked(int v) { apply(v); }  // rejected: requires mu_
#endif
  int total() const {
    const nttpim::sync::MutexLock lk(mu_);
    return total_;
  }

 private:
  void apply(int v) NTTPIM_REQUIRES(mu_) { total_ += v; }

  mutable nttpim::sync::Mutex mu_;
  int total_ NTTPIM_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Ledger l;
#ifdef NTTPIM_NEGATIVE
  l.post_unlocked(2);
#else
  l.post(2);
#endif
  return l.total() == 2 ? 0 : 1;
}
