//! The conversational system (§6.1): Watson-Assistant-style dialogue over
//! the medical KB, with query relaxation integrated for conversation
//! repair (Scenario 1, Figure 7) and concept expansion (Scenario 2,
//! Figure 8).

use medkb_core::{Feedback, FeedbackStore, QueryRelaxer};
use medkb_kb::Kb;
use medkb_types::{ContextId, InstanceId};

use crate::extract::EntityExtractor;
use crate::intent::IntentClassifier;

/// A reply from the conversational engine.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A direct answer for a known entity in a recognized context.
    Answer {
        /// The context the answer was computed in.
        context: ContextId,
        /// The entity the user asked about.
        entity: InstanceId,
        /// Answer instances (e.g. drugs).
        results: Vec<InstanceId>,
        /// Related concepts offered for exploration (Scenario 2); empty
        /// when relaxation is disabled.
        expansions: Vec<(InstanceId, f64)>,
        /// Rendered reply.
        text: String,
    },
    /// Conversation repair: the term was unknown, relaxation found
    /// semantically related KB entries (Scenario 1).
    Repair {
        /// The unknown term.
        unknown_term: String,
        /// Suggested related instances with scores, best first.
        suggestions: Vec<(InstanceId, f64)>,
        /// Rendered reply.
        text: String,
    },
    /// A yes/no verification answer ("does aspirin treat fever?").
    Verification {
        /// The subject entity (e.g. the drug).
        subject: InstanceId,
        /// The object entity (e.g. the finding).
        object: InstanceId,
        /// Whether the KB supports the claim in the recognized context.
        holds: bool,
        /// Rendered reply.
        text: String,
    },
    /// The system could not make sense of the utterance.
    DontUnderstand {
        /// Rendered reply.
        text: String,
    },
}

impl Response {
    /// The rendered reply text.
    pub fn text(&self) -> &str {
        match self {
            Response::Answer { text, .. }
            | Response::Repair { text, .. }
            | Response::Verification { text, .. }
            | Response::DontUnderstand { text } => text,
        }
    }
}

/// Dialogue state carried across turns (§4, "Context management").
#[derive(Debug, Clone, Default)]
struct DialogueState {
    context: Option<ContextId>,
    last_entity: Option<InstanceId>,
    /// An unresolved repair offer awaiting confirmation (Figure 7's
    /// "did you mean …" turn).
    pending_repair: Option<PendingRepair>,
}

/// A repair offer the user has not yet confirmed or declined.
#[derive(Debug, Clone)]
struct PendingRepair {
    context: Option<ContextId>,
    /// The external concept the unknown term resolved to.
    query_concept: medkb_types::ExtConceptId,
    suggestions: Vec<(InstanceId, f64)>,
}

/// The conversational engine.
pub struct ConversationEngine {
    kb: Kb,
    relaxer: QueryRelaxer,
    classifier: IntentClassifier,
    extractor: EntityExtractor,
    state: DialogueState,
    /// Accumulated relevance feedback (§7.2's proposed extension): repair
    /// confirmations and declines progressively improve future rankings.
    pub feedback: FeedbackStore,
    /// Disable to obtain the Table 3 "no QR" system.
    pub use_relaxation: bool,
    /// How many relaxed results to request.
    pub k: usize,
    /// Below this intent confidence the previous turn's context is kept.
    pub confidence_floor: f64,
}

impl ConversationEngine {
    /// Assemble an engine. The classifier should be trained on the §4
    /// bootstrap queries; the extractor on the same KB.
    pub fn new(
        kb: Kb,
        relaxer: QueryRelaxer,
        classifier: IntentClassifier,
        extractor: EntityExtractor,
    ) -> Self {
        Self {
            kb,
            relaxer,
            classifier,
            extractor,
            state: DialogueState::default(),
            feedback: FeedbackStore::new(),
            use_relaxation: true,
            k: 7,
            confidence_floor: 0.35,
        }
    }

    /// Reset the dialogue state (a new conversation).
    pub fn reset(&mut self) {
        self.state = DialogueState::default();
    }

    /// The KB the engine answers from.
    pub fn kb(&self) -> &Kb {
        &self.kb
    }

    /// Handle one user utterance.
    pub fn handle(&mut self, utterance: &str) -> Response {
        // 0. A pending repair offer: "yes"/"the first one" confirms it,
        //    "no"/"none" declines it (and teaches the feedback store);
        //    anything else falls through to normal handling.
        if let Some(response) = self.resolve_pending_repair(utterance) {
            return response;
        }

        // 1. Context: classifier opinion, falling back to the dialogue
        //    state on low confidence ("what about fever?").
        let classified = self.classifier.classify(utterance);
        let context = match classified {
            Some((ctx, conf)) if conf >= self.confidence_floor => Some(ctx),
            _ => self.state.context.or(classified.map(|(c, _)| c)),
        };

        // 2. Entities.
        let extraction = self.extractor.extract(utterance);

        // Verification questions mention two known entities under a
        // polar-question lead ("does aspirin treat fever?").
        if extraction.known.len() >= 2 {
            let lead = medkb_text::tokenize(utterance)
                .first()
                .map(|t| ["does", "do", "is", "are", "can", "will"].contains(&t.as_str()))
                .unwrap_or(false);
            if lead {
                if let Some(context) = context {
                    return self.verify(context, extraction.known[0], extraction.known[1]);
                }
            }
        }

        let entity = extraction.known.first().copied().or({
            // Follow-up without an entity: reuse the last one.
            if extraction.unknown.is_empty() {
                self.state.last_entity
            } else {
                None
            }
        });

        if let Some(entity) = entity {
            let Some(context) = context else {
                return self.dont_understand();
            };
            self.state.context = Some(context);
            self.state.last_entity = Some(entity);
            let results = self.answer(context, entity);
            let expansions = if self.use_relaxation {
                self.expansions(context, entity)
            } else {
                Vec::new()
            };
            let text = self.render_answer(entity, &results, &expansions);
            return Response::Answer { context, entity, results, expansions, text };
        }

        if let Some(unknown) = extraction.unknown.first() {
            if !self.use_relaxation {
                return self.dont_understand();
            }
            // Scenario 1: repair through relaxation.
            match self.relaxer.relax(unknown, context, self.k) {
                Ok(res) => {
                    let mut suggestions: Vec<(InstanceId, f64)> = Vec::new();
                    // When the approximate matcher resolved the term to a
                    // flagged concept, its own instances are the best
                    // repair suggestions ("did you mean …").
                    for &inst in self.relaxer.ingested().instances(res.query_concept) {
                        suggestions.push((inst, 1.0));
                    }
                    for ans in &res.answers {
                        for &inst in &ans.instances {
                            suggestions.push((inst, ans.score));
                        }
                    }
                    if suggestions.is_empty() {
                        return self.dont_understand();
                    }
                    self.state.context = context;
                    self.state.pending_repair = Some(PendingRepair {
                        context,
                        query_concept: res.query_concept,
                        suggestions: suggestions.clone(),
                    });
                    let names: Vec<&str> =
                        suggestions.iter().take(5).map(|&(i, _)| self.kb.name(i)).collect();
                    let text = format!(
                        "I couldn't find \"{unknown}\". Closest matches in the knowledge \
                         base: {}. Did you mean \"{}\"?",
                        names.join(", "),
                        self.kb.name(suggestions[0].0)
                    );
                    return Response::Repair { unknown_term: unknown.clone(), suggestions, text };
                }
                Err(_) => return self.dont_understand(),
            }
        }

        self.dont_understand()
    }

    /// Answer a `[context, entity]` pair by walking the KB: subjects of the
    /// context relationship, extended one hop towards drug-like subjects
    /// when the context's domain is itself the range of another
    /// relationship (Drug → Indication → Finding).
    ///
    /// Intent classifiers confuse sibling contexts of the same semantic
    /// family ("Disease-hasSymptom-Symptom" vs
    /// "Indication-hasFinding-Finding"), so when the classified context's
    /// relationship has no triples at the entity, the engine falls back to
    /// an incoming relationship whose context shares the classified
    /// context's tag.
    fn answer(&self, context: ContextId, entity: InstanceId) -> Vec<InstanceId> {
        let onto = self.kb.ontology();
        let ingested = self.relaxer.ingested();
        let find_spec = |id: ContextId| ingested.contexts.iter().find(|c| c.id == id);
        let spec = find_spec(context).expect("context ids come from the same ingestion");
        let mut direct = self.kb.subjects(entity, spec.relationship);
        let mut spec = spec;
        if direct.is_empty() {
            let wanted_tag = ingested.tag(context);
            let incoming_rels: std::collections::HashSet<_> =
                self.kb.incoming(entity).iter().map(|&(r, _)| r).collect();
            let fallback = ingested
                .contexts
                .iter()
                .filter(|c| incoming_rels.contains(&c.relationship))
                .find(|c| ingested.tag(c.id) == wanted_tag)
                .or_else(|| {
                    ingested
                        .contexts
                        .iter()
                        .find(|c| incoming_rels.contains(&c.relationship))
                });
            if let Some(fb) = fallback {
                spec = fb;
                direct = self.kb.subjects(entity, fb.relationship);
            }
        }
        if direct.is_empty() {
            return direct;
        }
        // Extend towards the subjects' owners when available.
        let owner_rels = onto.relationships_to(spec.domain);
        if owner_rels.is_empty() {
            return direct;
        }
        let mut extended = Vec::new();
        for &mid in &direct {
            for &rel in owner_rels {
                extended.extend(self.kb.subjects(mid, rel));
            }
        }
        extended.sort_unstable();
        extended.dedup();
        if extended.is_empty() {
            direct
        } else {
            extended
        }
    }

    /// Scenario 2 expansions: relaxed concepts related to a known entity.
    ///
    /// A known KB instance already has its external concept from
    /// ingestion's mapping table, so relaxation starts there rather than
    /// re-resolving the (possibly typo'd) instance name.
    fn expansions(&self, context: ContextId, entity: InstanceId) -> Vec<(InstanceId, f64)> {
        let relaxed = match self.relaxer.ingested().mappings.get(entity) {
            Some(concept) => self.relaxer.relax_concept_with_feedback(
                concept,
                Some(context),
                self.k,
                Some(&self.feedback),
            ),
            None => self.relaxer.relax(self.kb.name(entity), Some(context), self.k),
        };
        match relaxed {
            Ok(res) => {
                let mut out = Vec::new();
                for ans in &res.answers {
                    for &inst in &ans.instances {
                        if inst != entity {
                            out.push((inst, ans.score));
                        }
                    }
                }
                out
            }
            Err(_) => Vec::new(),
        }
    }

    fn render_answer(
        &self,
        entity: InstanceId,
        results: &[InstanceId],
        expansions: &[(InstanceId, f64)],
    ) -> String {
        let mut text = if results.is_empty() {
            format!("I found no entries for \"{}\".", self.kb.name(entity))
        } else {
            let names: Vec<&str> = results.iter().take(5).map(|&i| self.kb.name(i)).collect();
            format!("For \"{}\": {}.", self.kb.name(entity), names.join(", "))
        };
        if !expansions.is_empty() {
            let names: Vec<&str> =
                expansions.iter().take(5).map(|&(i, _)| self.kb.name(i)).collect();
            text.push_str(&format!(" Related topics you can explore: {}.", names.join(", ")));
        }
        text
    }

    /// Answer a polar question: does `subject` relate to `object` in the
    /// classified context (in either mention order)?
    fn verify(&mut self, context: ContextId, first: InstanceId, second: InstanceId) -> Response {
        let holds = self.answer(context, second).contains(&first)
            || self.answer(context, first).contains(&second);
        let (subject, object) = (first, second);
        self.state.context = Some(context);
        self.state.last_entity = Some(object);
        let label = self
            .relaxer
            .ingested()
            .contexts
            .iter()
            .find(|c| c.id == context)
            .map(|c| c.label.clone())
            .unwrap_or_default();
        let text = if holds {
            format!(
                "Yes — the knowledge base links \"{}\" and \"{}\" ({label}).",
                self.kb.name(subject),
                self.kb.name(object)
            )
        } else {
            format!(
                "I find no record linking \"{}\" and \"{}\" in that sense.",
                self.kb.name(subject),
                self.kb.name(object)
            )
        };
        Response::Verification { subject, object, holds, text }
    }

    fn dont_understand(&self) -> Response {
        Response::DontUnderstand { text: "I'm sorry, I don't understand.".to_string() }
    }

    /// Confirmation handling for a pending repair offer.
    fn resolve_pending_repair(&mut self, utterance: &str) -> Option<Response> {
        let pending = self.state.pending_repair.clone()?;
        let tokens = medkb_text::tokenize(utterance);
        let affirm = ["yes", "yeah", "sure", "ok", "okay", "first"];
        let decline = ["no", "none", "neither", "nope"];
        let is_affirm = !tokens.is_empty() && tokens.iter().all(|t| affirm.contains(&t.as_str()));
        let is_decline =
            !tokens.is_empty() && tokens.iter().all(|t| decline.contains(&t.as_str()));
        if !is_affirm && !is_decline {
            // Picking a suggestion by name also counts as acceptance.
            if let Some(&chosen) = self.extractor.extract(utterance).known.first() {
                if pending.suggestions.iter().any(|&(i, _)| i == chosen) {
                    self.state.pending_repair = None;
                    self.learn(&pending, chosen, Feedback::Accept);
                    return Some(self.answer_pending(&pending, chosen));
                }
            }
            // Unrelated utterance: drop the offer silently.
            self.state.pending_repair = None;
            return None;
        }
        self.state.pending_repair = None;
        if is_decline {
            for &(inst, _) in pending.suggestions.iter().take(3) {
                self.learn(&pending, inst, Feedback::Reject);
            }
            return Some(Response::DontUnderstand {
                text: "Understood — could you rephrase the condition?".to_string(),
            });
        }
        let chosen = pending.suggestions[0].0;
        self.learn(&pending, chosen, Feedback::Accept);
        Some(self.answer_pending(&pending, chosen))
    }

    /// Answer for a confirmed repair suggestion, keeping the dialogue state
    /// consistent.
    fn answer_pending(&mut self, pending: &PendingRepair, chosen: InstanceId) -> Response {
        let context = pending
            .context
            .or(self.state.context)
            .unwrap_or_else(|| self.relaxer.ingested().contexts[0].id);
        self.state.context = Some(context);
        self.state.last_entity = Some(chosen);
        let results = self.answer(context, chosen);
        let expansions =
            if self.use_relaxation { self.expansions(context, chosen) } else { Vec::new() };
        let text = self.render_answer(chosen, &results, &expansions);
        Response::Answer { context, entity: chosen, results, expansions, text }
    }

    /// Fold a confirmation/decline into the feedback store, keyed by the
    /// concept the unknown query term resolved to.
    fn learn(&mut self, pending: &PendingRepair, inst: InstanceId, signal: Feedback) {
        let ingested = self.relaxer.ingested();
        let Some(candidate) = ingested.mappings.get(inst) else { return };
        let Some(ctx) = pending.context.or(self.state.context) else { return };
        let tag = ingested.tag(ctx);
        self.feedback.record(&ingested.ekg, pending.query_concept, candidate, tag, signal);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainset::generate_training_queries;
    use medkb_core::{ingest, MappingMethod, RelaxConfig};
    use medkb_corpus::{CorpusConfig, CorpusGenerator, MentionCounts};
    use medkb_snomed::{MedWorld, WorldConfig};

    fn engine() -> ConversationEngine {
        let world = MedWorld::generate(&WorldConfig::tiny(91));
        let corpus = CorpusGenerator::new(&world.terminology, &world.oracle)
            .generate(&CorpusConfig::tiny(92));
        let counts = MentionCounts::count(&corpus, &world.terminology.ekg);
        let config = RelaxConfig { mapping: MappingMethod::Exact, ..RelaxConfig::default() };
        let out = ingest(&world.kb, world.terminology.ekg.clone(), &counts, None, &config)
            .unwrap();
        let relaxer = QueryRelaxer::new(out, config);
        let queries =
            generate_training_queries(&world.kb, &world.contexts, |c| world.tag_of(c), 6, 93);
        let classifier = IntentClassifier::train(&queries);
        let extractor = EntityExtractor::build(&world.kb);
        ConversationEngine::new(world.kb.clone(), relaxer, classifier, extractor)
    }

    /// A finding instance that participates in a treat triple and whose
    /// name the (exact) mapper resolved during ingestion — the normal
    /// "known term" situation of Scenario 2.
    fn treated_finding(e: &ConversationEngine) -> InstanceId {
        let rel = e
            .kb
            .ontology()
            .lookup_relationship("Indication-hasFinding-Finding")
            .unwrap();
        e.kb.instances()
            .map(|(id, _)| id)
            .find(|id| {
                !e.kb.subjects(*id, rel).is_empty()
                    && e.relaxer.ingested().mappings.contains_key(*id)
            })
            .expect("world has mapped treated findings")
    }

    #[test]
    fn known_entity_gets_answer_with_expansions() {
        let mut e = engine();
        let f = treated_finding(&e);
        let q = format!("what drugs treat {}", e.kb.name(f));
        match e.handle(&q) {
            Response::Answer { results, expansions, entity, .. } => {
                assert_eq!(entity, f);
                assert!(!results.is_empty(), "treated finding must have drug answers");
                assert!(!expansions.is_empty(), "scenario 2 expansions expected");
            }
            other => panic!("expected answer, got {other:?}"),
        }
    }

    #[test]
    fn unknown_term_triggers_repair() {
        let mut e = engine();
        match e.handle("what drugs treat zeppelinosis") {
            Response::Repair { unknown_term, suggestions, .. } => {
                assert_eq!(unknown_term, "zeppelinosis");
                // Unknown term is unmappable under exact mapping → the
                // relaxer errors → handled below.
                assert!(!suggestions.is_empty());
            }
            // Under exact mapping an unmappable term cannot be relaxed:
            // "I don't understand" is the correct no-QR-able outcome.
            Response::DontUnderstand { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_terminology_term_relaxes_to_suggestions() {
        let mut e = engine();
        // Pick a terminology finding with no KB instance: exact lookup in
        // the EKS succeeds, but the KB has nothing — the Scenario 1 case.
        let world_unmapped = {
            let ekg = &e.relaxer.ingested().ekg;
            let flagged = &e.relaxer.ingested().flagged;
            let shortcuts = e.relaxer.ingested().shortcuts.list();
            ekg.concepts()
                .find(|c| {
                    !flagged.contains(c)
                        && ekg.depth(*c) >= 3
                        && ekg
                            .neighborhood(*c, 4, shortcuts)
                            .iter()
                            .any(|(n, _)| flagged.contains(n))
                        // The name must not embed a KB instance name as a
                        // sub-phrase, or the extractor resolves it as known.
                        && e.extractor.extract(ekg.name(*c)).known.is_empty()
                })
                .expect("unflagged concept near flagged ones exists")
        };
        let name = e.relaxer.ingested().ekg.name(world_unmapped).to_string();
        match e.handle(&format!("what drugs treat {name}")) {
            Response::Repair { suggestions, .. } => {
                assert!(!suggestions.is_empty());
            }
            other => panic!("expected repair for {name}, got {other:?}"),
        }
    }

    #[test]
    fn no_qr_system_fails_on_unknown_terms() {
        let mut e = engine();
        e.use_relaxation = false;
        let ekg_name = {
            let ekg = &e.relaxer.ingested().ekg;
            let flagged = &e.relaxer.ingested().flagged;
            let c = ekg.concepts().find(|c| !flagged.contains(c) && ekg.depth(*c) >= 3).unwrap();
            ekg.name(c).to_string()
        };
        match e.handle(&format!("what drugs treat {ekg_name}")) {
            Response::DontUnderstand { .. } => {}
            other => panic!("no-QR system should not understand, got {other:?}"),
        }
    }

    #[test]
    fn followup_inherits_context_and_entity_switch() {
        let mut e = engine();
        let f = treated_finding(&e);
        let first = format!("what drugs treat {}", e.kb.name(f));
        let r1 = e.handle(&first);
        let ctx1 = match r1 {
            Response::Answer { context, .. } => context,
            other => panic!("{other:?}"),
        };
        // Another treated finding for the follow-up.
        let rel = e
            .kb
            .ontology()
            .lookup_relationship("Indication-hasFinding-Finding")
            .unwrap();
        let f2 = e
            .kb
            .instances()
            .map(|(id, _)| id)
            .find(|&id| id != f && !e.kb.subjects(id, rel).is_empty());
        if let Some(f2) = f2 {
            let follow = format!("what about {}", e.kb.name(f2));
            match e.handle(&follow) {
                Response::Answer { context, entity, .. } => {
                    assert_eq!(context, ctx1, "context must carry over");
                    assert_eq!(entity, f2);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn repair_confirmation_yes_answers_with_top_suggestion() {
        let mut e = engine();
        let name = unknown_term_name(&e);
        let repair = e.handle(&format!("what drugs treat {name}"));
        let top = match repair {
            Response::Repair { suggestions, .. } => suggestions[0].0,
            other => panic!("expected repair, got {other:?}"),
        };
        match e.handle("yes") {
            Response::Answer { entity, .. } => assert_eq!(entity, top),
            other => panic!("expected answer after confirmation, got {other:?}"),
        }
        assert!(!e.feedback.is_empty(), "confirmation must teach the feedback store");
    }

    #[test]
    fn repair_decline_records_rejection() {
        let mut e = engine();
        let name = unknown_term_name(&e);
        match e.handle(&format!("what drugs treat {name}")) {
            Response::Repair { .. } => {}
            other => panic!("expected repair, got {other:?}"),
        }
        match e.handle("no") {
            Response::DontUnderstand { text } => assert!(text.contains("rephrase")),
            other => panic!("expected rephrase prompt, got {other:?}"),
        }
        assert!(!e.feedback.is_empty());
    }

    #[test]
    fn repair_resolved_by_naming_a_suggestion() {
        let mut e = engine();
        let name = unknown_term_name(&e);
        let suggestions = match e.handle(&format!("what drugs treat {name}")) {
            Response::Repair { suggestions, .. } => suggestions,
            other => panic!("expected repair, got {other:?}"),
        };
        let pick = suggestions[suggestions.len().min(2) - 1].0;
        let pick_name = e.kb.name(pick).to_string();
        match e.handle(&pick_name) {
            Response::Answer { entity, .. } => assert_eq!(entity, pick),
            other => panic!("expected answer, got {other:?}"),
        }
    }

    /// A terminology name unknown to the KB that relaxes to suggestions.
    fn unknown_term_name(e: &ConversationEngine) -> String {
        let ekg = &e.relaxer.ingested().ekg;
        let flagged = &e.relaxer.ingested().flagged;
        let shortcuts = e.relaxer.ingested().shortcuts.list();
        ekg.concepts()
            .find(|c| {
                !flagged.contains(c)
                    && ekg.depth(*c) >= 3
                    && ekg.neighborhood(*c, 4, shortcuts).iter().any(|(n, _)| flagged.contains(n))
                    && e.extractor.extract(ekg.name(*c)).known.is_empty()
            })
            .map(|c| ekg.name(c).to_string())
            .expect("suitable unknown term exists")
    }

    #[test]
    fn verification_question_answers_yes_and_no() {
        let mut e = engine();
        let rel = e
            .kb
            .ontology()
            .lookup_relationship("Indication-hasFinding-Finding")
            .unwrap();
        let r_treat = e.kb.ontology().lookup_relationship("Drug-treat-Indication").unwrap();
        // A (drug, finding) pair connected through an indication.
        let (drug, finding) = e
            .kb
            .instances()
            .map(|(id, _)| id)
            .find_map(|f| {
                let inds = e.kb.subjects(f, rel);
                let drugs: Vec<_> =
                    inds.iter().flat_map(|&i| e.kb.subjects(i, r_treat)).collect();
                drugs.first().map(|&d| (d, f))
            })
            .expect("a connected pair exists");
        let q = format!("does {} treat {}", e.kb.name(drug), e.kb.name(finding));
        match e.handle(&q) {
            Response::Verification { holds, .. } => assert!(holds, "{q}"),
            other => panic!("expected verification, got {other:?}"),
        }
        // An unconnected pair answers no.
        let other_drug = e
            .kb
            .instances()
            .map(|(id, _)| id)
            .find(|&d| {
                d != drug
                    && e.kb.concept_of(d) == e.kb.concept_of(drug)
                    && !e
                        .kb
                        .subjects(finding, rel)
                        .iter()
                        .flat_map(|&i| e.kb.subjects(i, r_treat))
                        .any(|x| x == d)
            });
        if let Some(od) = other_drug {
            let q = format!("does {} treat {}", e.kb.name(od), e.kb.name(finding));
            match e.handle(&q) {
                Response::Verification { holds, .. } => assert!(!holds, "{q}"),
                other => panic!("expected verification, got {other:?}"),
            }
        }
    }

    #[test]
    fn gibberish_is_not_understood() {
        let mut e = engine();
        match e.handle("?!") {
            Response::DontUnderstand { .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut e = engine();
        let f = treated_finding(&e);
        let _ = e.handle(&format!("what drugs treat {}", e.kb.name(f)));
        e.reset();
        // A bare follow-up now has neither context nor entity.
        match e.handle("what about") {
            Response::DontUnderstand { .. } => {}
            other => panic!("{other:?}"),
        }
    }
}
