//===- support/CommandLine.h - Tiny flag parser -----------------*- C++ -*-===//
//
// Part of the lifepred project (Barrett & Zorn, PLDI 1993 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal "--name=value" flag parser for the examples and bench binaries.
///
//===----------------------------------------------------------------------===//

#ifndef LIFEPRED_SUPPORT_COMMANDLINE_H
#define LIFEPRED_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lifepred {

/// Parses flags of the form "--name=value" or bare "--name" (boolean true).
/// Non-flag arguments are collected as positional arguments in order.
class CommandLine {
public:
  /// Parses \p Argc / \p Argv, skipping argv[0].
  CommandLine(int Argc, const char *const *Argv);

  /// Returns true if \p Name was passed as a flag.
  bool has(const std::string &Name) const;

  /// Returns the string value of \p Name, or \p Default if absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Returns the integer value of \p Name, or \p Default if absent.  A
  /// present value that is not a whole base-10 integer prints
  /// "error: --<name>=<value>: want a number" and exits with code 2.
  int64_t getInt(const std::string &Name, int64_t Default) const;

  /// Returns the double value of \p Name, or \p Default if absent; exits
  /// like getInt on a value that is not a whole number.
  double getDouble(const std::string &Name, double Default) const;

  /// Returns positional (non-flag) arguments in order.
  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Positional;
};

} // namespace lifepred

#endif // LIFEPRED_SUPPORT_COMMANDLINE_H
