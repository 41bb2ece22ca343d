//===- core/SiteDatabase.cpp - Predicted-short-lived site set --------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/SiteDatabase.h"

#include "support/Assert.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

using namespace lifepred;

namespace {

const char *modeName(SiteKeyMode Mode) {
  switch (Mode) {
  case SiteKeyMode::CompleteChain:
    return "complete";
  case SiteKeyMode::LastN:
    return "lastn";
  case SiteKeyMode::SizeOnly:
    return "sizeonly";
  case SiteKeyMode::Encrypted:
    return "encrypted";
  case SiteKeyMode::TypeOnly:
    return "typeonly";
  case SiteKeyMode::TypeAndSize:
    return "typesize";
  }
  LIFEPRED_UNREACHABLE("unknown site-key mode");
}

std::optional<SiteKeyMode> parseMode(const std::string &Name) {
  if (Name == "complete")
    return SiteKeyMode::CompleteChain;
  if (Name == "lastn")
    return SiteKeyMode::LastN;
  if (Name == "sizeonly")
    return SiteKeyMode::SizeOnly;
  if (Name == "encrypted")
    return SiteKeyMode::Encrypted;
  if (Name == "typeonly")
    return SiteKeyMode::TypeOnly;
  if (Name == "typesize")
    return SiteKeyMode::TypeAndSize;
  return std::nullopt;
}

} // namespace

void SiteDatabase::insert(SiteKey Key) {
  if (Key == 0) {
    HasZero = true;
    return;
  }
  if (2 * (Count + 1) > Slots.size())
    grow();
  size_t I = slotOf(Key);
  for (; Slots[I] != 0; I = (I + 1) & (Slots.size() - 1))
    if (Slots[I] == Key)
      return;
  Slots[I] = Key;
  ++Count;
}

void SiteDatabase::grow() {
  std::vector<SiteKey> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 16 : 2 * Old.size(), 0);
  Shift = 64 - log2Ceil(Slots.size());
  for (SiteKey Key : Old) {
    if (Key == 0)
      continue;
    size_t I = slotOf(Key);
    while (Slots[I] != 0)
      I = (I + 1) & (Slots.size() - 1);
    Slots[I] = Key;
  }
}

void SiteDatabase::save(std::ostream &OS) const {
  OS << "sitedb v" << FormatVersion << '\n';
  OS << "policy " << modeName(Policy.Mode) << ' ' << Policy.Length << ' '
     << Policy.SizeRounding << '\n';
  OS << "threshold " << Threshold << '\n';
  std::vector<SiteKey> Sorted;
  Sorted.reserve(size());
  if (HasZero)
    Sorted.push_back(0);
  for (SiteKey Key : Slots)
    if (Key != 0)
      Sorted.push_back(Key);
  std::sort(Sorted.begin(), Sorted.end());
  for (SiteKey Key : Sorted)
    OS << "site " << Key << '\n';
}

std::optional<SiteDatabase> SiteDatabase::load(std::istream &IS,
                                               std::string *Error) {
  auto Reject = [&](std::string Why) -> std::optional<SiteDatabase> {
    if (Error)
      *Error = std::move(Why);
    return std::nullopt;
  };
  const std::string Magic = "sitedb v";
  std::string Line;
  if (!std::getline(IS, Line) || Line.rfind(Magic, 0) != 0)
    return Reject("not a site database (no \"sitedb\" header)");
  if (Line != Magic + std::to_string(FormatVersion))
    return Reject("unsupported site database version " +
                  Line.substr(Magic.size()) + " (expected " +
                  std::to_string(FormatVersion) +
                  "; site keys changed, retrain the database)");

  SiteDatabase DB;
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Keyword;
    LS >> Keyword;
    if (Keyword == "policy") {
      std::string ModeText;
      if (!(LS >> ModeText >> DB.Policy.Length >> DB.Policy.SizeRounding))
        return Reject("malformed line: " + Line);
      auto Mode = parseMode(ModeText);
      if (!Mode)
        return Reject("unknown policy: " + ModeText);
      DB.Policy.Mode = *Mode;
    } else if (Keyword == "threshold") {
      if (!(LS >> DB.Threshold))
        return Reject("malformed line: " + Line);
    } else if (Keyword == "site") {
      SiteKey Key = 0;
      if (!(LS >> Key))
        return Reject("malformed line: " + Line);
      DB.insert(Key);
    } else {
      return Reject("malformed line: " + Line);
    }
  }
  return DB;
}
