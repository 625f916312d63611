//! Strings packed into one arena.

/// Strings packed into one UTF-8 arena: string `i` is
/// `text[offsets[i]..offsets[i + 1]]`.
///
/// A column of a million strings is two heap blocks, not a million: the
/// flat form large read-mostly tables (graph names, synonyms, lookup keys)
/// take in memory and in the store alike.
///
/// ```
/// use medkb_types::StringColumn;
///
/// let mut names: StringColumn = ["ache", "fever"].into_iter().collect();
/// names.insert(1, "cough");
/// assert_eq!(names.get(1), "cough");
/// assert_eq!(names.remove(0), "ache");
/// assert_eq!(names.offsets, [0, 5, 10]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringColumn {
    /// `len() + 1` ascending byte offsets into `text`, starting at 0, each
    /// on a character boundary.
    pub offsets: Vec<u32>,
    /// The strings, concatenated.
    pub text: String,
}

impl Default for StringColumn {
    fn default() -> Self {
        Self { offsets: vec![0], text: String::new() }
    }
}

impl<S: AsRef<str>> FromIterator<S> for StringColumn {
    fn from_iter<I: IntoIterator<Item = S>>(strings: I) -> Self {
        let mut column = Self::default();
        for s in strings {
            column.push(s.as_ref());
        }
        column
    }
}

impl StringColumn {
    /// Number of strings.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the column holds no string.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// String `i`.
    ///
    /// # Panics
    /// If `i >= len()`.
    pub fn get(&self, i: usize) -> &str {
        &self.text[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The strings in order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append `s`.
    ///
    /// # Panics
    /// If the arena would pass `u32::MAX` bytes.
    pub fn push(&mut self, s: &str) {
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("string arena exceeds u32 offsets");
        self.offsets.push(end);
    }

    /// Insert `s` before string `i`, shifting the arena: O(arena bytes).
    pub fn insert(&mut self, i: usize, s: &str) {
        let at = self.offsets[i];
        self.text.insert_str(at as usize, s);
        self.offsets.insert(i, at);
        let len = u32::try_from(s.len()).expect("string exceeds u32 offsets");
        for o in &mut self.offsets[i + 1..] {
            *o += len;
        }
    }

    /// Remove and return string `i`, shifting the arena: O(arena bytes).
    pub fn remove(&mut self, i: usize) -> String {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        let s = self.text.drain(lo as usize..hi as usize).collect();
        self.offsets.remove(i + 1);
        for o in &mut self.offsets[i + 1..] {
            *o -= hi - lo;
        }
        s
    }
}
