#include "util/flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/common.h"

namespace mbe::util {

namespace {

const char* TypeName(int t) {
  switch (t) {
    case 0:
      return "string";
    case 1:
      return "int";
    case 2:
      return "double";
    case 3:
      return "bool";
  }
  return "?";
}

bool ParseBoolText(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    *out = false;
    return true;
  }
  return false;
}

}  // namespace

void FlagParser::AddString(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  PMBE_CHECK_MSG(!parsed_, "flag '%s' registered after Parse()", name.c_str());
  flags_[name] = Flag{Type::kString, help, default_value};
}

void FlagParser::AddInt(const std::string& name, int64_t default_value,
                        const std::string& help) {
  PMBE_CHECK_MSG(!parsed_, "flag '%s' registered after Parse()", name.c_str());
  flags_[name] = Flag{Type::kInt, help, std::to_string(default_value)};
}

void FlagParser::AddDouble(const std::string& name, double default_value,
                           const std::string& help) {
  PMBE_CHECK_MSG(!parsed_, "flag '%s' registered after Parse()", name.c_str());
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", default_value);
  flags_[name] = Flag{Type::kDouble, help, buf};
}

void FlagParser::AddBool(const std::string& name, bool default_value,
                         const std::string& help) {
  PMBE_CHECK_MSG(!parsed_, "flag '%s' registered after Parse()", name.c_str());
  flags_[name] = Flag{Type::kBool, help, default_value ? "true" : "false"};
}

Status FlagParser::SetValue(const std::string& name,
                            const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  const auto malformed = [&](const char* type) {
    return Status::InvalidArgument("flag --" + name + " expects " + type +
                                   ", got '" + value + "'");
  };
  switch (flag.type) {
    case Type::kString:
      flag.value = value;
      break;
    case Type::kInt: {
      char* end = nullptr;
      (void)strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return malformed("an integer");
      flag.value = value;
      break;
    }
    case Type::kDouble: {
      char* end = nullptr;
      (void)strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return malformed("a double");
      flag.value = value;
      break;
    }
    case Type::kBool: {
      bool parsed = false;
      if (!ParseBoolText(value, &parsed)) return malformed("a bool");
      flag.value = parsed ? "true" : "false";
      break;
    }
  }
  return Status::Ok();
}

void FlagParser::Parse(int argc, char** argv) {
  parsed_ = true;
  if (Status parsed = ParseArgs(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.ToString().c_str());
    PrintUsage(argv[0]);
    std::exit(2);
  }
}

Status FlagParser::ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      PMBE_RETURN_IF_ERROR(SetValue(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    // `--no-name` for booleans.
    if (body.rfind("no-", 0) == 0) {
      const std::string name = body.substr(3);
      auto it = flags_.find(name);
      if (it != flags_.end() && it->second.type == Type::kBool) {
        it->second.value = "false";
        continue;
      }
    }
    auto it = flags_.find(body);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (it->second.type == Type::kBool) {
      it->second.value = "true";
      continue;
    }
    // Value is the next argument.
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + body + " is missing a value");
    }
    PMBE_RETURN_IF_ERROR(SetValue(body, argv[++i]));
  }
  return Status::Ok();
}

const FlagParser::Flag& FlagParser::GetFlagOrDie(const std::string& name,
                                                 Type type) const {
  auto it = flags_.find(name);
  PMBE_CHECK_MSG(it != flags_.end(), "flag --%s was never registered",
                 name.c_str());
  PMBE_CHECK_MSG(it->second.type == type,
                 "flag --%s has type %s, requested %s", name.c_str(),
                 TypeName(static_cast<int>(it->second.type)),
                 TypeName(static_cast<int>(type)));
  return it->second;
}

std::string FlagParser::GetString(const std::string& name) const {
  return GetFlagOrDie(name, Type::kString).value;
}

int64_t FlagParser::GetInt(const std::string& name) const {
  return strtoll(GetFlagOrDie(name, Type::kInt).value.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name) const {
  return strtod(GetFlagOrDie(name, Type::kDouble).value.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name) const {
  return GetFlagOrDie(name, Type::kBool).value == "true";
}

Status FlagParser::CheckIntRange(const std::string& name, int64_t lo,
                                 int64_t hi) const {
  const int64_t value = GetInt(name);
  if (value >= lo && value <= hi) return Status::Ok();
  return Status::InvalidArgument("--" + name + " must be in [" +
                                 std::to_string(lo) + ", " +
                                 std::to_string(hi) + "] (got " +
                                 std::to_string(value) + ")");
}

void FlagParser::PrintUsage(const char* argv0) const {
  std::fprintf(stderr, "usage: %s [flags]\n", argv0);
  for (const auto& [name, flag] : flags_) {
    std::fprintf(stderr, "  --%s (%s, default %s)\n      %s\n", name.c_str(),
                 TypeName(static_cast<int>(flag.type)), flag.value.c_str(),
                 flag.help.c_str());
  }
}

}  // namespace mbe::util
