//! The diagonal-transition search (Ukkonen 1985, Landau–Vishkin 1989; Myers
//! 1986 for insertions and deletions alone) that CAR's edit distance and
//! ROUGE-L's longest common subsequence both try before their bit-vector
//! passes: it costs what two sequences differ by, not how long they are.

const UNREACHED: isize = isize::MIN / 2;

/// The diagonal-transition algorithm for a pattern and a text not shorter,
/// deepened one bound at a time. With `substitutions` the cost is the
/// Levenshtein distance; without, insertions and deletions alone, whose
/// distance `D` gives the longest common subsequence, `(|pattern| + |text|
/// − D) / 2`.
///
/// Diagonal `k` is the cells `(i, i + k)`, `i` a pattern row; the cost of a
/// cell never falls along its diagonal. A state `(k, d)` is the furthest row
/// diagonal `k` reaches at cost at most `d`: its own row at `d − 1` (one
/// further with a substitution) or a neighbour's one edit away, then a
/// slide over the matches that follow. Diagonal 0 starts a row above the
/// table with substitutions and at row 0 without, so cost 0 starts at (0,
/// 0) either way. The distance is the first `d` whose
/// state on the last cell's diagonal `gap` reaches row `|pattern|`.
///
/// A state's bound `d + |k − gap|` is the least cost of an alignment through
/// it, and its neighbours at `d − 1` have bounds no higher. So the states of
/// bound at most `t` settle every distance up to `t` by themselves, and the
/// search adds them a bound at a time: bound `f` gives each diagonal of the
/// `f − gap + 1` with `|k| + |k − gap| ≤ f` its next state, `d = f − |k −
/// gap|`. Within one bound the diagonals below `gap` go upwards and those
/// above it downwards, each reading the neighbour on its way in after that
/// neighbour's new state and the one ahead before it, then `gap` itself.
/// Deepening from `t` to `t'` costs what a pass at `t'` would less one at
/// `t`, at most `(t' − gap + 1)(t' + 1)` states in all.
pub(crate) struct DiagonalSearch<'a, T> {
    pattern: &'a [T],
    text: &'a [T],
    substitutions: bool,
    /// The bound the search has finished.
    bound: Option<usize>,
    /// Diagonal `k`'s last two states' rows (the newer first) at `k +
    /// below + 1`, with an unreached diagonal beyond either end.
    rows: Vec<[isize; 2]>,
    below: isize,
}

impl<'a, T: Copy + PartialEq> DiagonalSearch<'a, T> {
    /// A search with room for every bound up to `deepest`.
    pub(crate) fn new(pattern: &'a [T], text: &'a [T], deepest: usize, substitutions: bool) -> Self {
        let gap = text.len() - pattern.len();
        let below = (deepest.saturating_sub(gap) / 2) as isize;
        let mut rows = vec![[UNREACHED; 2]; gap + 2 * below as usize + 3];
        rows[below as usize + 1][0] = -isize::from(substitutions);
        DiagonalSearch { pattern, text, substitutions, bound: None, rows, below }
    }

    /// The distance if it is at most `t` (not above the `deepest` the search
    /// was made for), else `None`.
    pub(crate) fn deepen(&mut self, t: usize) -> Option<usize> {
        let (m, n) = (self.pattern.len() as isize, self.text.len() as isize);
        let gap = n - m;
        let next = self.bound.map_or(gap as usize, |bound| bound + 1);
        for f in next..=t {
            let excess = (f as isize - gap) / 2;
            debug_assert!(excess <= self.below, "deeper than the search was sized for");
            for k in (-excess).max(-m)..gap {
                self.advance(k);
            }
            for k in (gap + 1..=(gap + excess).min(n)).rev() {
                self.advance(k);
            }
            self.advance(gap);
            self.bound = Some(f);
            if self.rows[self.at(gap)][0] == m {
                return Some(f);
            }
        }
        None
    }

    fn at(&self, k: isize) -> usize {
        (k + self.below + 1) as usize
    }

    /// Diagonal `k`'s next state, from its own last one and its neighbours'
    /// at one cost less: the newer state of a neighbour already advanced at
    /// this bound (`k − 1` below `gap`, `k + 1` above it, both at `gap`),
    /// the older state of one not yet advanced.
    fn advance(&mut self, k: isize) {
        let (m, n) = (self.pattern.len() as isize, self.text.len() as isize);
        let gap = n - m;
        let here = self.rows[self.at(k)][0];
        let beside = self.rows[self.at(k - 1)][usize::from(k > gap)];
        let across = self.rows[self.at(k + 1)][usize::from(k < gap)];
        let row = (here + isize::from(self.substitutions)).max(beside).max(across + 1).min(m).min(n - k);
        let (i, j) = (row as usize, (row + k) as usize);
        let slid = row + common_prefix(&self.pattern[i..], &self.text[j..]) as isize;
        let at = self.at(k);
        self.rows[at] = [slid, here];
    }
}

/// Length of the common prefix of `a` and `b`, eight elements a step while
/// they agree.
fn common_prefix<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let len = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= len && a[i..i + 8].iter().zip(&b[i..i + 8]).all(|(x, y)| x == y) {
        i += 8;
    }
    while i < len && a[i] == b[i] {
        i += 1;
    }
    i
}
