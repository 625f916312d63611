//! Text processing substrate: normalization, tokenization, approximate
//! string matching, and phrase spotting.
//!
//! The paper's offline ingestion and online relaxation both need to map
//! names — KB instance names and user query terms — onto external concept
//! names (§3, §5.1). Three pluggable matchers are evaluated in Table 1:
//! exact matching, approximate matching under an edit-distance threshold
//! `τ = 2`, and embedding matching. This crate supplies the first two plus
//! the shared plumbing (the embedding matcher lives in `medkb-embed`):
//!
//! * [`normalize`](mod@normalize) — the canonical form every matcher compares in.
//! * [`edit`] — banded Levenshtein / Damerau-Levenshtein distances.
//! * [`ngram`] — a character-trigram inverted index so that τ-bounded
//!   matching over hundreds of thousands of concept names does not require
//!   a full scan.
//! * [`token`] — the whitespace/punctuation word tokenizer shared with the
//!   corpus and NLI crates.
//! * [`gazetteer`] — longest-match multi-word phrase spotting over a token
//!   trie, used by the conversational system's entity extraction.

#![warn(missing_docs)]

pub mod edit;
pub mod gazetteer;
pub mod ngram;
pub mod normalize;
pub mod phonetic;
pub mod token;

pub use edit::{damerau_levenshtein, levenshtein, levenshtein_within};
pub use gazetteer::{Gazetteer, PhraseMatch};
pub use ngram::NgramIndex;
pub use normalize::normalize;
pub use phonetic::{phrase_key, soundex};
pub use token::{token_spans, tokenize};
