//===- runtime/OnlinePredictor.h - Online per-site lifetime model -*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *reaction* half of drift handling: a per-site lifetime model that
/// trains during the run.  Where the offline SiteDatabase is frozen at
/// training time and the DriftObservatory (telemetry/DriftObservatory.h)
/// only *reports* when it went stale, the online predictor keeps a
/// streaming per-SiteKey sketch of observed death lifetimes, runs the same
/// windowed CUSUM the drift report uses — but live, at byte-clock window
/// boundaries — and, when a site's accumulated misprediction evidence
/// trips the decision threshold, retrains that one site's verdict by
/// majority vote over its recent deaths and re-routes it between the
/// short-lived arena and the general heap mid-run.
///
/// The routing table is epoch-versioned: every window that flips at least
/// one site's route bumps the epoch, so consumers (the route compile pass
/// in runtime/Retrainer.h, the shadow oracle in verify/) can cheaply detect
/// "the table you cached is stale".
///
/// Determinism contract: the model is a pure function of the sequence of
/// routeShort / observeDeath / advanceClock calls.  All state is integer
/// (ppm accumulators, log2 lifetime histograms — no floating point), site
/// iteration at window close is in key order, and retrain decisions happen
/// only at window boundaries.  Feeding the model the replay event stream
/// — which is itself bit-identical between the oracle and compiled paths —
/// therefore yields bit-identical routes, retrain logs, and epochs on
/// every run (the differential battery in tests/online_predictor_test.cpp
/// holds all of this).
///
/// Warm start: constructed over a SiteDatabase, each site's initial route
/// is the database verdict, resolved lazily on first sight (the database's
/// key set is not iterable, and lazy resolution also covers sites the
/// training run never saw).  With ReactToDrift off, routes never change,
/// so a warm-started frozen predictor reproduces the static path
/// bit-for-bit — the anchor of the differential tests.  Cold start (no
/// database) routes every site long until evidence arrives.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_RUNTIME_ONLINEPREDICTOR_H
#define LIFEPRED_RUNTIME_ONLINEPREDICTOR_H

#include "callchain/SiteKey.h"
#include "core/SiteDatabase.h"
#include "core/Trainer.h"
#include "support/FlatAddressMap.h"

#include <array>
#include <cstdint>
#include <vector>

namespace lifepred {

/// Knobs of one online-prediction run.  The CUSUM defaults mirror
/// DriftReportOptions (telemetry/DriftObservatory.h), so a site the
/// offline drift report would flag is the site the online model retrains.
struct OnlinePredictorConfig {
  /// Warm-start database: initial routes and the classification
  /// threshold.  Null cold-starts every site as long-lived.  The pointee
  /// must outlive the predictor.
  const SiteDatabase *WarmStart = nullptr;
  /// Short-lived threshold (bytes) classifying observed deaths.  Taken
  /// from WarmStart when present.
  uint64_t Threshold = DefaultShortLivedThreshold;
  /// Byte-clock window width for retrain decisions; 0 picks
  /// DefaultWindowBytes (callers replaying a known-length schedule
  /// resolve an automatic width first, see Retrainer.h).
  uint64_t WindowBytes = 0;
  /// When false the model observes and accumulates evidence but never
  /// re-routes — the frozen mode the differential tests pin against the
  /// static path.
  bool ReactToDrift = true;
  /// CUSUM slack per window, in ppm (deviations below this never
  /// accumulate).  The gate integrates the *net benefit margin* — the
  /// window misprediction rate minus the 500000 ppm break-even point —
  /// because re-routing a site only pays when the opposite route would
  /// have done strictly better; a site mispredicted 45% of the time is
  /// still on its majority route and must never trip.
  int64_t CusumSlackPpm = 20000;
  /// CUSUM decision threshold, in ppm of accumulated benefit margin:
  /// roughly one window at 100% misprediction (a hard one-time drift
  /// re-routes at the window close that flags it) or sustained moderate
  /// evidence across several windows.
  int64_t CusumDecisionPpm = 450000;
  /// Minimum deaths in a (site, window) before it feeds the CUSUM.
  uint64_t MinWindowDeaths = 4;
  /// Majority-vote bar for re-routing a site short: the window's
  /// short-death fraction in ppm must reach this.
  uint64_t RouteShortMinPpm = 500000;
  /// Break-even deadband: no flip while the short-death fraction of the
  /// evidence that *led to this decision* — deaths observed since the
  /// site's previous gate decision — is within this many ppm of 500000.
  /// A near-break-even site accumulates its gate slowly across windows
  /// of mixed deaths, so its evidence sits at the coin-toss point and
  /// the flip is withheld: such a site gains nothing from either route,
  /// and flipping it only chases phase noise.  A genuinely drifted site
  /// trips on one or two near-pure windows, far outside the band.  The
  /// evidence counters reset at every decision (flipped or withheld),
  /// so stale pre-drift history cannot drown out fresh evidence.  0
  /// disables the deadband.
  uint64_t FlipDeadbandPpm = 150000;
  /// Oscillation damper, asymmetric around the warm-start verdict: each
  /// flip *away* from a site's home route doubles the decision bar for
  /// the next flip away (capped at this many doublings), while flipping
  /// back home is always at the base bar.  A genuine one-time drift pays
  /// nothing — its single flip away is at the base bar — but a site
  /// whose phases alternate, where *any* reactive policy loses to
  /// standing still, spends geometrically less time off its trained
  /// verdict and converges back to the static route.  0 disables the
  /// damper.
  uint32_t FlipBackoffCap = 6;
};

/// One applied re-route: the flagged site's verdict flip, logged at the
/// window boundary that tripped the CUSUM.
struct RetrainEvent {
  uint64_t Window = 0;      ///< Index of the window whose close tripped.
  uint64_t Clock = 0;       ///< Byte clock of that window boundary.
  SiteKey Site = 0;
  bool OldRoute = false;    ///< true = short-lived arena.
  bool NewRoute = false;
  uint64_t WindowShortDeaths = 0;
  uint64_t WindowLongDeaths = 0;
  int64_t GatePpm = 0;      ///< CUSUM accumulator value at the trip.
  uint32_t Epoch = 0;       ///< Routing-table epoch after the flip.

  bool operator==(const RetrainEvent &Other) const = default;
};

/// Per-site forensics snapshot (key-sorted), for `trace_tool retrain`.
struct OnlineSiteSnapshot {
  SiteKey Site = 0;
  bool Route = false;
  uint32_t RouteFlips = 0;
  uint64_t ShortDeaths = 0;
  uint64_t LongDeaths = 0;
  int64_t GatePpm = 0;
  /// Median observed death lifetime, as the representative value of its
  /// log2 bucket (0 when the site saw no deaths).
  uint64_t ObservedQ50 = 0;

  bool operator==(const OnlineSiteSnapshot &Other) const = default;
};

/// The streaming per-site model.  Not thread-safe; the replay drivers are
/// single-threaded by construction (the sharded shapes consume the
/// *precompiled* route plan instead).
class OnlinePredictor {
public:
  /// Window width used when the config leaves WindowBytes at 0 and no
  /// end clock is known: 256 KiB of allocation.
  static constexpr uint64_t DefaultWindowBytes = 256 * 1024;

  explicit OnlinePredictor(const OnlinePredictorConfig &Config = {});

  const OnlinePredictorConfig &config() const { return Cfg; }
  uint64_t threshold() const { return Cfg.Threshold; }
  uint64_t windowBytes() const { return Width; }

  /// The current route of \p Site: true = short-lived arena.  Resolves
  /// the warm-start verdict on first sight.  Callers invoke this at every
  /// allocation; the result is the route *as of the last closed window*.
  bool routeShort(SiteKey Site) { return state(Site).Route; }

  /// Records one observed death.  \p RoutedShort is the route the object
  /// was *born* under (the caller tracked it at allocation), so the
  /// misprediction signal matches what the allocator actually did, not
  /// what the current table would do.
  void observeDeath(SiteKey Site, bool RoutedShort, uint64_t Lifetime);

  /// Advances the byte clock, closing (and deciding) every window that
  /// ends at or before \p Clock.  Call with each event's clock, before
  /// processing the event; clocks must be non-decreasing.
  void advanceClock(uint64_t Clock);

  /// Closes the final partial window at \p EndClock.  Only affects the
  /// forensics (retrain log completeness); no allocation follows.
  void finish(uint64_t EndClock);

  /// Routing-table epoch: bumped once per window that flipped at least
  /// one route.  0 means "still exactly the warm-start table".
  uint32_t epoch() const { return Epoch; }

  /// Applied re-routes, in (window, site-key) order.
  const std::vector<RetrainEvent> &retrains() const { return Retrains; }

  /// Distinct sites seen (routed or observed).
  uint64_t siteCount() const { return States.size(); }

  /// Total deaths observed.
  uint64_t deathCount() const { return Deaths; }

  /// Key-sorted per-site state, for forensics output.
  std::vector<OnlineSiteSnapshot> snapshot() const;

private:
  struct SiteState {
    SiteKey Key = 0;
    bool Route = false;
    bool HomeRoute = false; ///< The warm-start verdict (backoff anchor).
    uint32_t AwayFlips = 0; ///< Flips away from home, drives the backoff.
    uint32_t RouteFlips = 0;
    int64_t Gate = 0; ///< CUSUM accumulator, ppm.
    uint64_t WinShort = 0;
    uint64_t WinLong = 0;
    uint64_t WinMis = 0;
    uint64_t ShortDeaths = 0;
    uint64_t LongDeaths = 0;
    /// Deadband evidence: deaths since the last gate decision.
    uint64_t DbShort = 0;
    uint64_t DbLong = 0;
    /// Log2 lifetime sketch: bucket = bit_width(Lifetime), so bucket 0 is
    /// lifetime 0 and bucket B covers [2^(B-1), 2^B).
    std::array<uint32_t, 65> Hist = {};
  };

  static constexpr uint32_t NoSlot = ~uint32_t(0);

  SiteState &state(SiteKey Site);
  SiteState &addSite(SiteKey Site);
  void closeWindow(uint64_t BoundaryClock);

  OnlinePredictorConfig Cfg;
  uint64_t Width = DefaultWindowBytes;
  uint64_t NextBoundary = 0;
  uint64_t WindowIndex = 0;
  uint64_t WindowDeaths = 0; ///< Deaths in the open window (skip gate).
  uint64_t Deaths = 0;
  uint32_t Epoch = 0;
  /// Per-site state, in first-sight order.
  std::vector<SiteState> States;
  /// Site key -> slot in States.  ~0 is the map's empty marker, so that
  /// one key's slot lives in AllOnesSlot instead.
  FlatAddressMap Slots;
  uint32_t AllOnesSlot = NoSlot;
  /// Slots of States in ascending key order (each new site is inserted at
  /// its upper_bound): window close and snapshots walk sites key-sorted,
  /// with no sort, so the retrain log is a pure function of the events.
  std::vector<uint32_t> KeyOrder;
  std::vector<RetrainEvent> Retrains;
};

} // namespace lifepred

#endif // LIFEPRED_RUNTIME_ONLINEPREDICTOR_H
