// Pace clock: wall time rescaled to a fixed nominal pace of the CPU.
//
// On a shared host the pace at which this thread runs moves by up to 2x
// within seconds as other tenants load the cores, and a raw wall time of
// the same work then spreads by a third across runs.  While a Pacer is
// alive, a timer interrupts this thread every kTickPeriodNs and runs a
// fixed reference kernel: mpn_sec_powm on a 384-bit modulus, which takes
// its scratch from the caller and allocates nothing, so it is safe in a
// signal handler.  kNominalTickS / (measured kernel time) is the pace; the
// median of the last kRecent ticks is the estimate in force.  now_s()
// integrates wall time weighted by that estimate and leaves the ticks' own
// time out.  A fixed amount of work then reads the same pace-seconds
// whatever the neighbours do, provided they slow the kernel and the work
// alike; they do here, since the protocol's time is mostly modular
// exponentiation on numbers of that size (N^2 for a 192-bit N).
#include <gmp.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace wallbench {

namespace {

constexpr long kTickPeriodNs = 10'000'000;  // 10 ms between ticks
constexpr mp_size_t kLimbs = 6;             // 384-bit modulus and exponent
constexpr unsigned kKernelReps = 6;
// The kernel's time on an uncontended core of the reference host (a 4-core
// Xeon VM), so pace-seconds read close to wall seconds there.
constexpr double kNominalTickS = 250e-6;
constexpr unsigned kRecent = 5;
constexpr std::size_t kLogCap = 1 << 17;  // tick durations kept for stats()

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Written only by tick(): from the signal handler, or before the timer is
// armed.  now_s() reads it with the tick signal blocked.
struct PaceState {
  bool active = false;
  double norm_s = 0;    // pace-seconds up to last_end_s
  double last_end_s = 0;
  double pace = 1;      // estimate in force since last_end_s
  double recent[kRecent] = {};
  std::size_t ticks = 0;
  mp_limb_t mod[kLimbs] = {}, base[kLimbs] = {}, exp[kLimbs] = {}, out[kLimbs] = {};
  std::vector<mp_limb_t> scratch;
  std::vector<double> log_s;  // reserved up front; the handler never grows it
};

PaceState g_pace;

void tick() {
  PaceState& s = g_pace;
  const double a = mono_s();
  for (unsigned i = 0; i < kKernelReps; ++i) {
    mpn_sec_powm(s.out, s.base, kLimbs, s.exp, kLimbs * GMP_NUMB_BITS, s.mod, kLimbs,
                 s.scratch.data());
  }
  const double b = mono_s();
  if (s.log_s.size() < s.log_s.capacity()) s.log_s.push_back(b - a);
  s.recent[s.ticks % kRecent] = kNominalTickS / (b - a);
  ++s.ticks;
  double sorted[kRecent];
  const std::size_t n = std::min<std::size_t>(s.ticks, kRecent);
  std::copy(s.recent, s.recent + n, sorted);
  std::sort(sorted, sorted + n);
  const double pace = sorted[n / 2];
  // The span since the previous tick counts at the estimate now_s() used
  // during it, so readings stay continuous and never run backwards.
  if (s.ticks > 1) s.norm_s += (a - s.last_end_s) * s.pace;
  s.last_end_s = b;
  s.pace = pace;
}

void on_tick(int) {
  const int saved = errno;
  tick();
  errno = saved;
}

}  // namespace

double now_s() {
  if (!g_pace.active) return mono_s();
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGALRM);
  pthread_sigmask(SIG_BLOCK, &block, &old);
  const double t = mono_s();
  const double r = g_pace.norm_s + (t - g_pace.last_end_s) * g_pace.pace;
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return r;
}

Pacer::Pacer() {
  if (g_pace.active) throw std::logic_error("Pacer: one at a time");
  PaceState& s = g_pace;
  s = PaceState{};
  for (mp_size_t i = 0; i < kLimbs; ++i) {
    const auto k = static_cast<mp_limb_t>(i + 1);
    s.mod[i] = 0x9E3779B97F4A7C15ULL * k;
    s.base[i] = 0xD1B54A32D192ED03ULL * k;
    s.exp[i] = 0xF1357AEA2E62A9C5ULL * k;
  }
  s.mod[0] |= 1;                                  // odd, as mpn_sec_powm requires
  s.mod[kLimbs - 1] |= mp_limb_t{1} << (GMP_NUMB_BITS - 1);
  s.base[kLimbs - 1] >>= 1;                       // base < mod
  s.scratch.resize(mpn_sec_powm_itch(kLimbs, kLimbs * GMP_NUMB_BITS, kLimbs));
  s.log_s.reserve(kLogCap);
  tick();  // first estimate, before any reading

  struct sigaction sa {};
  sa.sa_handler = on_tick;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGALRM, &sa, nullptr) != 0) throw std::runtime_error("Pacer: sigaction");
  // Deliver to this thread only, so a reading and a tick never race.
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    throw std::runtime_error(std::string("Pacer: timer_create: ") + std::strerror(errno));
  }
  s.active = true;
  itimerspec period{};
  period.it_interval.tv_nsec = kTickPeriodNs;
  period.it_value.tv_nsec = kTickPeriodNs;
  timer_settime(timer_, 0, &period, nullptr);
}

Pacer::~Pacer() {
  timer_delete(timer_);
  signal(SIGALRM, SIG_IGN);  // drops a tick still pending
  g_pace.active = false;
}

PaceStats Pacer::stats() const {
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGALRM);
  pthread_sigmask(SIG_BLOCK, &block, &old);
  std::vector<double> us;
  for (double d : g_pace.log_s) us.push_back(d * 1e6);
  const std::size_t ticks = g_pace.ticks;
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  return {ticks, quartiles(std::move(us))};
}

}  // namespace wallbench
