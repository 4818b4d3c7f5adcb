//===-- Generators.h - seeded inputs from the bench generators -*- C++ -*-===//
///
/// \file
/// The program shapes the benchmark feeds the analysis. The generators
/// themselves live in bench/scalability.cpp and bench/edit_storm.cpp;
/// Generators.cpp re-exports them so there is exactly one copy of each.
///
//===----------------------------------------------------------------------===//

#ifndef LCBENCH_GENERATORS_H
#define LCBENCH_GENERATORS_H

#include <string>
#include <vector>

namespace lcbench {

/// bench/scalability.cpp's heavy subject: the `hot` loop steps every one
/// of \p Clusters clusters, each planting one leaking `Rec<C>` site.
std::string heavySource(unsigned Clusters);

/// bench/scalability.cpp's dead-weight program: \p Subsystems clusters of
/// which the `hot` loop touches only cluster 0 (`Record0` sites leak).
std::string wideSource(unsigned Subsystems);

/// bench/edit_storm.cpp's editable subject: \p Variant[C] picks one of
/// three same-signature bodies for the tail of `Svc<C>.step`; the first
/// \p Hot clusters are stepped inside the `hot` loop.
std::string editSource(unsigned Clusters, unsigned Hot,
                       const std::vector<unsigned> &Variant);

} // namespace lcbench

#endif // LCBENCH_GENERATORS_H
