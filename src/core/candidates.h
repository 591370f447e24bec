// The polymorphic Candidate predicate of Algorithm 3: each link class has
// its own implementation deciding which node pairs get connected.
//
// Two shapes exist, mirroring the paper's practice:
//  * pairwise candidates (family links, Algorithm 7) are evaluated inside
//    each block produced by the two-level clustering;
//  * global candidates (control, Algorithm 5; close links, Algorithm 6)
//    are whole-graph reasoning tasks evaluated once per augmentation round.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "company/company_graph.h"
#include "company/family.h"
#include "core/link_class.h"
#include "graph/property_graph.h"
#include "linkage/bayes.h"

namespace vadalink::core {

/// A link proposed by a candidate implementation.
struct PredictedLink {
  graph::NodeId x;
  graph::NodeId y;
  LinkClass cls;
  double score = 1.0;  // classifier probability; 1.0 for deterministic rules
};

/// Base interface.
class Candidate {
 public:
  virtual ~Candidate() = default;

  virtual const char* name() const = 0;

  /// Pairwise candidates are driven block-by-block by VadaLink; global
  /// candidates get the whole graph once per round.
  virtual bool is_pairwise() const = 0;

  /// Pairwise: decide on one pair. Default: no link.
  ///
  /// Thread-safety contract: VadaLink calls TestPair against the round's
  /// frozen graph at every thread count (the links it returns are added
  /// only after every block of the round has been compared), and
  /// concurrently from its pool's workers when ParallelOptions threads >
  /// 1. Implementations must therefore be read-only with respect to both
  /// `g` and their own state (the built-in FamilyCandidate is: the
  /// classifier and the link-kind rules are pure).
  virtual std::optional<PredictedLink> TestPair(const graph::PropertyGraph& g,
                                                graph::NodeId x,
                                                graph::NodeId y) {
    (void)g; (void)x; (void)y;
    return std::nullopt;
  }

  /// Global: produce all links of this class. Default: none.
  virtual Result<std::vector<PredictedLink>> RunGlobal(
      const graph::PropertyGraph& g) {
    (void)g;
    return std::vector<PredictedLink>{};
  }
};

/// Algorithm 7: family links between persons via the Bayesian classifier.
class FamilyCandidate : public Candidate {
 public:
  FamilyCandidate(linkage::BayesLinkClassifier classifier,
                  company::FamilyDetectorConfig config = {})
      : classifier_(std::move(classifier)), config_(config) {}

  const char* name() const override { return "family"; }
  bool is_pairwise() const override { return true; }
  std::optional<PredictedLink> TestPair(const graph::PropertyGraph& g,
                                        graph::NodeId x,
                                        graph::NodeId y) override;

  const linkage::BayesLinkClassifier& classifier() const {
    return classifier_;
  }

 private:
  linkage::BayesLinkClassifier classifier_;
  company::FamilyDetectorConfig config_;
};

/// Algorithm 5: company control (Definition 2.3).
class ControlCandidate : public Candidate {
 public:
  explicit ControlCandidate(double threshold = 0.5)
      : threshold_(threshold) {}

  const char* name() const override { return "control"; }
  bool is_pairwise() const override { return false; }
  Result<std::vector<PredictedLink>> RunGlobal(
      const graph::PropertyGraph& g) override;

 private:
  double threshold_;
};

/// Algorithm 6 + 8/9 family extension: close links (Definitions 2.6/2.9).
class CloseLinkCandidate : public Candidate {
 public:
  explicit CloseLinkCandidate(company::CloseLinkConfig config = {})
      : config_(config) {}

  const char* name() const override { return "close_link"; }
  bool is_pairwise() const override { return false; }
  Result<std::vector<PredictedLink>> RunGlobal(
      const graph::PropertyGraph& g) override;

 private:
  company::CloseLinkConfig config_;
};

/// Family control (Definition 2.8): control edges from detected families.
/// Families are read from the person-link edges already present in the
/// graph (PartnerOf / ParentOf / SiblingOf), so this candidate benefits
/// from family links predicted in earlier rounds — the reinforcement loop
/// of Algorithm 1.
class FamilyControlCandidate : public Candidate {
 public:
  explicit FamilyControlCandidate(double threshold = 0.5)
      : threshold_(threshold) {}

  const char* name() const override { return "family_control"; }
  bool is_pairwise() const override { return false; }
  Result<std::vector<PredictedLink>> RunGlobal(
      const graph::PropertyGraph& g) override;

 private:
  double threshold_;
};

/// Families encoded as person-link edges in g (union of PartnerOf /
/// ParentOf / SiblingOf components with >= 2 members).
std::vector<std::vector<graph::NodeId>> FamiliesFromGraph(
    const graph::PropertyGraph& g);

}  // namespace vadalink::core
