//! Word tokenization shared by the corpus, embedding, and NLI crates.

/// Split a string into lowercase word tokens.
///
/// Tokens are maximal runs of alphanumeric characters; everything else is a
/// separator. This is intentionally the same segmentation as
/// [`crate::normalize`](fn@crate::normalize), so a normalized name is exactly the space-join of
/// its tokens.
///
/// ```
/// use medkb_text::tokenize;
/// assert_eq!(tokenize("What drugs treat psychogenic fever?"),
///            vec!["what", "drugs", "treat", "psychogenic", "fever"]);
/// ```
pub fn tokenize(s: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            // Keep only alphanumeric expansion chars, mirroring
            // `crate::normalize` (see the `İ` note there) so the
            // tokens-join-to-normalized invariant holds.
            for lower in ch.to_lowercase().filter(|c| c.is_alphanumeric()) {
                cur.push(lower);
            }
        } else if !cur.is_empty() {
            tokens.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        tokens.push(cur);
    }
    tokens
}

/// Iterate over the (byte-offset, token) pairs of `s` without allocating the
/// token strings. Offsets refer to the original string, which lets callers
/// map matches back to spans.
pub fn token_spans(s: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start: Option<usize> = None;
    for (i, ch) in s.char_indices() {
        if ch.is_alphanumeric() {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(b) = start.take() {
            spans.push((b, i));
        }
    }
    if let Some(b) = start {
        spans.push((b, s.len()));
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_sentence() {
        assert_eq!(tokenize("Aspirin treats fever."), vec!["aspirin", "treats", "fever"]);
    }

    #[test]
    fn empty_and_punct() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("?!--").is_empty());
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(tokenize("stage 1 ckd"), vec!["stage", "1", "ckd"]);
    }

    #[test]
    fn multichar_lowercase_expansion_matches_normalize() {
        // Mirrors the `İ` idempotence fix in normalize.
        assert_eq!(tokenize("İstanbul"), vec!["istanbul"]);
        assert_eq!(tokenize("İstanbul").join(" "), crate::normalize("İstanbul"));
    }

    #[test]
    fn spans_match_source() {
        let s = "Pain (in throat)";
        let spans = token_spans(s);
        let words: Vec<&str> = spans.iter().map(|&(a, b)| &s[a..b]).collect();
        assert_eq!(words, vec!["Pain", "in", "throat"]);
    }

    #[test]
    fn trailing_token_span() {
        let s = "renal impairment";
        let spans = token_spans(s);
        assert_eq!(spans.last().map(|&(a, b)| &s[a..b]), Some("impairment"));
    }

    proptest! {
        #[test]
        fn prop_tokens_join_to_normalized(s in ".{0,48}") {
            let joined = tokenize(&s).join(" ");
            prop_assert_eq!(joined, crate::normalize(&s));
        }

        #[test]
        fn prop_span_count_matches_token_count(s in ".{0,48}") {
            prop_assert_eq!(token_spans(&s).len(), tokenize(&s).len());
        }
    }
}
