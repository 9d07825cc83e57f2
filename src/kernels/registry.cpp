#include "kernels/registry.hpp"

#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

namespace vdg {

namespace detail {
// Defined by the generated manifest (src/kernels/gen/manifest.cpp).
void registerGeneratedKernels();
}  // namespace detail

namespace {
std::map<std::string, CompiledKernels>& table() {
  static std::map<std::string, CompiledKernels> t;
  return t;
}
std::mutex& tableMutex() {
  static std::mutex m;
  return m;
}
int& duplicateCount() {
  static int n = 0;
  return n;
}
void ensureGeneratedRegistered() {
  static std::once_flag once;
  std::call_once(once, [] { detail::registerGeneratedKernels(); });
}
}  // namespace

const CompiledKernels* findCompiledKernels(const std::string& specName) {
  ensureGeneratedRegistered();
  std::scoped_lock lock(tableMutex());
  const auto it = table().find(specName);
  return it == table().end() ? nullptr : &it->second;
}

void registerCompiledKernels(const std::string& specName, const CompiledKernels& k) {
  std::scoped_lock lock(tableMutex());
  const auto [it, inserted] = table().insert_or_assign(specName, k);
  if (!inserted) {
    ++duplicateCount();
    std::cerr << "vdg: warning: duplicate compiled-kernel registration for spec '" << specName
              << "' (last registration wins)\n";
  }
}

int numCompiledKernelSets() {
  ensureGeneratedRegistered();
  std::scoped_lock lock(tableMutex());
  return static_cast<int>(table().size());
}

std::vector<std::string> listCompiledKernelSpecs() {
  ensureGeneratedRegistered();
  std::scoped_lock lock(tableMutex());
  std::vector<std::string> names;
  names.reserve(table().size());
  for (const auto& [name, k] : table()) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::vector<std::string> describeCompiledKernelSpecs() {
  ensureGeneratedRegistered();
  std::scoped_lock lock(tableMutex());
  std::vector<std::string> lines;
  lines.reserve(table().size());
  for (const auto& [name, k] : table()) {
    std::ostringstream os;
    os << name << ": " << k.numPhaseModes << " modes, lanes {";
    bool first = true;
    for (const CompiledKernelSet& set : k.sets) {
      if (set.lanes == 0) continue;
      os << (first ? "" : ",") << set.lanes;
      first = false;
    }
    os << "}";
    lines.push_back(os.str());
  }
  return lines;
}

void logKernelDispatch(const std::string& specName, bool compiled, int lanes) {
  static std::set<std::string> logged;
  static std::mutex m;
  std::ostringstream os;
  os << "vdg: kernels: " << specName << " -> ";
  if (!compiled)
    os << "tape-interpreted, scalar cell loop";
  else if (lanes > 1)
    os << "compiled, batched B=" << lanes << " (AoSoA lane loop active)";
  else
    os << "compiled, B=1 cell loop";
  const std::string line = os.str();
  std::scoped_lock lock(m);
  if (logged.insert(line).second) std::cerr << line << "\n";
}

int numDuplicateKernelRegistrations() {
  ensureGeneratedRegistered();
  std::scoped_lock lock(tableMutex());
  return duplicateCount();
}

}  // namespace vdg
