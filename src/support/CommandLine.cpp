//===- support/CommandLine.cpp - Tiny flag parser --------------------------===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace lifepred;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0) {
      Positional.push_back(Arg);
      continue;
    }
    std::string Body = Arg.substr(2);
    auto Eq = Body.find('=');
    if (Eq == std::string::npos)
      Flags[Body] = "true";
    else
      Flags[Body.substr(0, Eq)] = Body.substr(Eq + 1);
  }
}

bool CommandLine::has(const std::string &Name) const {
  return Flags.count(Name) != 0;
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  auto It = Flags.find(Name);
  return It == Flags.end() ? Default : It->second;
}

namespace {

/// Ends the program for a present numeric flag whose value is empty, out
/// of range or followed by junk.
[[noreturn]] void rejectNumber(const std::string &Name,
                               const std::string &Value) {
  std::fprintf(stderr, "error: --%s=%s: want a number\n", Name.c_str(),
               Value.c_str());
  std::exit(2);
}

} // namespace

int64_t CommandLine::getInt(const std::string &Name, int64_t Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    return Default;
  const char *Begin = It->second.c_str();
  char *End = nullptr;
  errno = 0;
  int64_t Value = std::strtoll(Begin, &End, 10);
  if (End == Begin || *End != '\0' || errno == ERANGE)
    rejectNumber(Name, It->second);
  return Value;
}

double CommandLine::getDouble(const std::string &Name, double Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    return Default;
  const char *Begin = It->second.c_str();
  char *End = nullptr;
  errno = 0;
  double Value = std::strtod(Begin, &End);
  if (End == Begin || *End != '\0' || errno == ERANGE)
    rejectNumber(Name, It->second);
  return Value;
}
