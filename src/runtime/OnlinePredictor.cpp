//===- runtime/OnlinePredictor.cpp - Online per-site lifetime model --------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "runtime/OnlinePredictor.h"

#include <algorithm>
#include <bit>

using namespace lifepred;

OnlinePredictor::OnlinePredictor(const OnlinePredictorConfig &Config)
    : Cfg(Config) {
  if (Cfg.WarmStart)
    Cfg.Threshold = Cfg.WarmStart->threshold();
  Width = Cfg.WindowBytes == 0 ? DefaultWindowBytes : Cfg.WindowBytes;
  NextBoundary = Width;
}

OnlinePredictor::SiteState &OnlinePredictor::state(SiteKey Site) {
  uint32_t Slot = AllOnesSlot;
  if (Site != FlatAddressMap::EmptyKey) {
    const uint32_t *Found = Slots.find(Site);
    Slot = Found ? *Found : NoSlot;
  }
  return Slot == NoSlot ? addSite(Site) : States[Slot];
}

OnlinePredictor::SiteState &OnlinePredictor::addSite(SiteKey Site) {
  uint32_t Slot = static_cast<uint32_t>(States.size());
  SiteState &S = States.emplace_back();
  S.Key = Site;
  S.Route = Cfg.WarmStart != nullptr && Cfg.WarmStart->contains(Site);
  S.HomeRoute = S.Route;
  if (Site == FlatAddressMap::EmptyKey)
    AllOnesSlot = Slot;
  else
    Slots.insert(Site, Slot);
  return S;
}

void OnlinePredictor::observeDeath(SiteKey Site, bool RoutedShort,
                                   uint64_t Lifetime) {
  SiteState &S = state(Site);
  if (S.WinShort + S.WinLong == 0)
    ActiveSites.emplace_back(Site, static_cast<uint32_t>(&S - States.data()));
  bool Short = Lifetime <= Cfg.Threshold;
  if (Short)
    ++S.WinShort;
  else
    ++S.WinLong;
  if (RoutedShort != Short)
    ++S.WinMis;
  ++(Short ? S.ShortDeaths : S.LongDeaths);
  ++(Short ? S.DbShort : S.DbLong);
  ++S.Hist[std::bit_width(Lifetime)];
  ++Deaths;
}

void OnlinePredictor::advanceClock(uint64_t Clock) {
  while (Clock >= NextBoundary) {
    closeWindow(NextBoundary);
    NextBoundary += Width;
    ++WindowIndex;
  }
}

void OnlinePredictor::finish(uint64_t EndClock) {
  advanceClock(EndClock);
  // The final partial window, so tail-of-run evidence reaches the log.
  if (!ActiveSites.empty())
    closeWindow(EndClock);
}

void OnlinePredictor::closeWindow(uint64_t BoundaryClock) {
  if (ActiveSites.empty())
    return;
  bool Flipped = false;
  // Key order, so the decision order — and with it the retrain log — is a
  // pure function of the event stream, not of first-sight order.
  std::sort(ActiveSites.begin(), ActiveSites.end());
  for (const auto &Active : ActiveSites) {
    SiteState &S = States[Active.second];
    uint64_t WindowTotal = S.WinShort + S.WinLong;
    if (WindowTotal >= Cfg.MinWindowDeaths) {
      int64_t MisPpm = static_cast<int64_t>(S.WinMis * 1000000 / WindowTotal);
      // Benefit margin: positive only when the *opposite* route would
      // have mispredicted less this window (mis rate above break-even).
      S.Gate = std::max<int64_t>(
          0, S.Gate + (MisPpm - 500000) - Cfg.CusumSlackPpm);
      // Leaving the warm-start verdict gets geometrically harder with
      // every departure; coming home is always at the base bar.
      int64_t Decision =
          S.Route == S.HomeRoute
              ? Cfg.CusumDecisionPpm
                    << std::min(S.AwayFlips, Cfg.FlipBackoffCap)
              : Cfg.CusumDecisionPpm;
      if (Cfg.ReactToDrift && S.Gate >= Decision) {
        bool NewRoute =
            S.WinShort * 1000000 >= Cfg.RouteShortMinPpm * WindowTotal;
        // Near-break-even evidence gains nothing from either route;
        // withhold the flip instead of chasing phase noise.  The
        // evidence is what accumulated since the last decision, so it
        // measures exactly the windows that tripped this gate.
        uint64_t DbTotal = S.DbShort + S.DbLong;
        uint64_t DbShortPpm =
            DbTotal == 0 ? 500000 : S.DbShort * 1000000 / DbTotal;
        bool BreakEven =
            DbShortPpm + Cfg.FlipDeadbandPpm > 500000 &&
            DbShortPpm < 500000 + Cfg.FlipDeadbandPpm;
        if (BreakEven)
          NewRoute = S.Route;
        S.DbShort = 0;
        S.DbLong = 0;
        if (NewRoute != S.Route) {
          RetrainEvent Event;
          Event.Window = WindowIndex;
          Event.Clock = BoundaryClock;
          Event.Site = S.Key;
          Event.OldRoute = S.Route;
          Event.NewRoute = NewRoute;
          Event.WindowShortDeaths = S.WinShort;
          Event.WindowLongDeaths = S.WinLong;
          Event.GatePpm = S.Gate;
          Event.Epoch = Epoch + 1;
          Retrains.push_back(Event);
          if (NewRoute != S.HomeRoute)
            ++S.AwayFlips;
          S.Route = NewRoute;
          ++S.RouteFlips;
          Flipped = true;
        }
        // Evidence consumed either way: the verdict was re-decided.
        S.Gate = 0;
      }
    }
    S.WinShort = 0;
    S.WinLong = 0;
    S.WinMis = 0;
  }
  ActiveSites.clear();
  if (Flipped)
    ++Epoch;
}

std::vector<OnlineSiteSnapshot> OnlinePredictor::snapshot() const {
  std::vector<const SiteState *> ByKey;
  ByKey.reserve(States.size());
  for (const SiteState &S : States)
    ByKey.push_back(&S);
  std::sort(ByKey.begin(), ByKey.end(),
            [](const SiteState *A, const SiteState *B) {
              return A->Key < B->Key;
            });
  std::vector<OnlineSiteSnapshot> Out;
  Out.reserve(States.size());
  for (const SiteState *Site : ByKey) {
    const SiteState &S = *Site;
    OnlineSiteSnapshot Snap;
    Snap.Site = S.Key;
    Snap.Route = S.Route;
    Snap.RouteFlips = S.RouteFlips;
    Snap.ShortDeaths = S.ShortDeaths;
    Snap.LongDeaths = S.LongDeaths;
    Snap.GatePpm = S.Gate;
    uint64_t Total = S.ShortDeaths + S.LongDeaths;
    if (Total != 0) {
      uint64_t Seen = 0;
      for (size_t Bucket = 0; Bucket < S.Hist.size(); ++Bucket) {
        Seen += S.Hist[Bucket];
        if (Seen * 2 >= Total) {
          Snap.ObservedQ50 =
              Bucket == 0 ? 0 : uint64_t(1) << (Bucket - 1);
          break;
        }
      }
    }
    Out.push_back(Snap);
  }
  return Out;
}
