// Classifier factory.
//
// All classifiers are constructible by registry name with a ParamMap and a
// seed; the platform layer builds its pipelines exclusively through this
// factory.  One table in registry.cpp holds each classifier's name, Table 4
// abbreviation, Table 5 family and constructor; every lookup below reads it.
#pragma once

#include <string>
#include <vector>

#include "ml/classifier.h"

namespace mlaas {

/// Construct a classifier by one of classifier_names().  Throws
/// std::invalid_argument for unknown names.
ClassifierPtr make_classifier(const std::string& name, const ParamMap& params = {},
                              std::uint64_t seed = 0);

/// All registry names, in registry-table order.
std::vector<std::string> classifier_names();

/// Table 4 abbreviation for a registry name (e.g. "boosted_trees" -> "BST");
/// an unknown name is returned unchanged.
std::string classifier_abbrev(const std::string& name);

/// Table 5: is this registry name in the linear family?  False for an
/// unknown name.
bool classifier_is_linear(const std::string& name);

}  // namespace mlaas
