// Declarative parameter schema for scenario descriptions.
//
// Every experiment kind in the registry declares the parameters it
// accepts as a ParamSchema: field name, JSON type, whether a sweep may
// expand over it, and a one-line description (printed by `sttram_cli
// campaign list`).  Validation runs before anything executes, so a
// campaign with a typo in scenario 37 fails fast with the scenario name
// and field in the message instead of mid-run.
#pragma once

#include <string>
#include <vector>

#include "sttram/io/json.hpp"

namespace sttram::scenario {

/// JSON type a parameter must carry.
enum class ParamType {
  kBool,
  kInteger,  ///< integral number (doubles with zero fraction accepted)
  kNumber,   ///< any finite number
  kString,   ///< free string
  kEnum,     ///< string restricted to `choices`
};

[[nodiscard]] const char* to_string(ParamType t);

/// One accepted parameter of an experiment kind.
struct ParamField {
  std::string name;
  ParamType type = ParamType::kNumber;
  std::string description;
  /// Accepted spellings when type == kEnum.
  std::vector<std::string> choices;
};

/// The full parameter contract of one experiment kind.
class ParamSchema {
 public:
  ParamSchema& field(std::string name, ParamType type,
                     std::string description,
                     std::vector<std::string> choices = {});

  [[nodiscard]] const std::vector<ParamField>& fields() const {
    return fields_;
  }
  [[nodiscard]] const ParamField* find(const std::string& name) const;

  /// Throws sttram::Error when `params` (a JSON object) carries an
  /// unknown key or a value of the wrong type.  `context` prefixes the
  /// message (e.g. "scenario 'yield/sigma=0.06'").
  void validate(const Json& params, const std::string& context) const;

 private:
  std::vector<ParamField> fields_;
};

/// Typed lookups with defaults over a validated params object.  Each
/// throws sttram::Error on a type mismatch (validate() already rules
/// that out for schema-checked params).
[[nodiscard]] bool param_bool(const Json& params, const std::string& key,
                              bool fallback);
[[nodiscard]] std::int64_t param_int(const Json& params,
                                     const std::string& key,
                                     std::int64_t fallback);
/// param_int for counts and sizes: throws InvalidArgument naming
/// `scenario` when the value is negative, so no negative integer ever
/// reaches a std::size_t.
[[nodiscard]] std::size_t param_count(const Json& params,
                                      const std::string& key,
                                      std::size_t fallback,
                                      const std::string& scenario);
[[nodiscard]] double param_number(const Json& params, const std::string& key,
                                  double fallback);
[[nodiscard]] std::string param_string(const Json& params,
                                       const std::string& key,
                                       const std::string& fallback);

}  // namespace sttram::scenario
