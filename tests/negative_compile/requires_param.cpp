// Negative-compile case: NTTPIM_REQUIRES on a *parameter* capability — an
// externally locked object whose accessors take the owning mutex by
// reference and declare that their caller holds it (clang resolves the
// parameter-named capability against the lock the caller actually holds,
// which a member-pointer alias cannot express). Control: the caller holds
// the lock across the calls, compiles everywhere. Violation: the same call
// without the lock must be rejected ("calling function ... requires
// holding mutex 'mu'").
#include "sync/mutex.h"

namespace {

/// Externally locked: not self-locking, every accessor names the lock.
class Tally {
 public:
  void add(int v, nttpim::sync::Mutex& mu) NTTPIM_REQUIRES(mu) {
    (void)mu;  // the capability token only
    total_ += v;
  }
  int total(nttpim::sync::Mutex& mu) const NTTPIM_REQUIRES(mu) {
    (void)mu;
    return total_;
  }

 private:
  int total_ = 0;
};

nttpim::sync::Mutex mu;

int add_locked(Tally& tally) {
  const nttpim::sync::MutexLock lk(mu);
  tally.add(2, mu);
  return tally.total(mu);
}

#ifdef NTTPIM_NEGATIVE
void add_unlocked(Tally& tally) {
  tally.add(2, mu);  // rejected: requires holding mu
}
#endif

}  // namespace

int main() {
  Tally tally;
#ifdef NTTPIM_NEGATIVE
  add_unlocked(tally);
#endif
  return add_locked(tally) == 2 ? 0 : 1;
}
