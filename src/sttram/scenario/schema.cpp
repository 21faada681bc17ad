#include "sttram/scenario/schema.hpp"

#include <cmath>
#include <string>

#include "sttram/common/error.hpp"

namespace sttram::scenario {

const char* to_string(ParamType t) {
  switch (t) {
    case ParamType::kBool:
      return "bool";
    case ParamType::kInteger:
      return "integer";
    case ParamType::kNumber:
      return "number";
    case ParamType::kString:
      return "string";
    case ParamType::kEnum:
      return "enum";
  }
  return "?";
}

ParamSchema& ParamSchema::field(std::string name, ParamType type,
                                std::string description,
                                std::vector<std::string> choices) {
  fields_.push_back({std::move(name), type, std::move(description),
                     std::move(choices)});
  return *this;
}

const ParamField* ParamSchema::find(const std::string& name) const {
  for (const ParamField& f : fields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

namespace {

bool type_matches(const ParamField& field, const Json& value,
                  std::string& detail) {
  switch (field.type) {
    case ParamType::kBool:
      return value.is_bool();
    case ParamType::kInteger:
      if (!value.is_number()) return false;
      if (value.as_number() != std::floor(value.as_number())) {
        detail = "non-integral number";
        return false;
      }
      return true;
    case ParamType::kNumber:
      return value.is_number();
    case ParamType::kString:
      return value.is_string();
    case ParamType::kEnum: {
      if (!value.is_string()) return false;
      for (const std::string& c : field.choices) {
        if (c == value.as_string()) return true;
      }
      detail = "'" + value.as_string() + "' is not one of {";
      for (std::size_t i = 0; i < field.choices.size(); ++i) {
        detail += (i > 0 ? ", " : "") + field.choices[i];
      }
      detail += "}";
      return false;
    }
  }
  return false;
}

}  // namespace

void ParamSchema::validate(const Json& params,
                           const std::string& context) const {
  require(params.is_object(), context + ": params must be a JSON object");
  for (const std::string& key : params.keys()) {
    const ParamField* field = find(key);
    require(field != nullptr,
            context + ": unknown parameter '" + key + "'");
    std::string detail;
    if (!type_matches(*field, params.at(key), detail)) {
      std::string msg = context + ": parameter '" + key + "' wants " +
                        to_string(field->type);
      if (!detail.empty()) msg += " (" + detail + ")";
      throw InvalidArgument(msg);
    }
  }
}

bool param_bool(const Json& params, const std::string& key, bool fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_bool();
}

std::int64_t param_int(const Json& params, const std::string& key,
                       std::int64_t fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_integer();
}

std::size_t param_count(const Json& params, const std::string& key,
                        std::size_t fallback, const std::string& scenario) {
  const std::int64_t value =
      param_int(params, key, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw InvalidArgument("scenario '" + scenario + "': parameter '" + key +
                          "' must be >= 0 (got " + std::to_string(value) +
                          ")");
  }
  return static_cast<std::size_t>(value);
}

double param_number(const Json& params, const std::string& key,
                    double fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_number();
}

std::string param_string(const Json& params, const std::string& key,
                         const std::string& fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_string();
}

}  // namespace sttram::scenario
