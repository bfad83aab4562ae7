//! Interning for hot-path model labels.
//!
//! Every task names its model by a label ([`crate::Task::label`], a
//! `&'static str`: a literal or a parser kind's display name — no label is
//! built at run time, and requiring `'static` is what lets a task be
//! emitted, dispatched, retired and dropped without allocating for it). The
//! executor's warm-pool and warm-statistics tables want a dense integer per
//! distinct model, so [`ModelInterner`] maps each label to a `u32` id once
//! per session; the hot loop works in ids and `String`s are materialized
//! only when a report is built.

/// Dense integer id of an interned model label (see [`ModelInterner`]).
pub type ModelId = u32;

/// A session-level interner mapping model labels to dense `u32` ids.
///
/// Ids are assigned in first-appearance order starting at zero, so they are
/// valid indexes into id-ordered side tables. Interning the same label twice
/// returns the same id; resolving an id returns the original label. Lookup
/// is a scan of the labels seen so far — a session runs a handful of models,
/// and comparing a few short strings beats hashing one.
///
/// # Example
///
/// ```
/// use hpcsim::ModelInterner;
///
/// let mut models = ModelInterner::new();
/// let nougat = models.intern("Nougat");
/// assert_eq!(models.intern("Nougat"), nougat);
/// assert_eq!(models.resolve(nougat), "Nougat");
/// assert_eq!(models.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelInterner {
    names: Vec<&'static str>,
}

impl ModelInterner {
    /// An empty interner.
    pub fn new() -> Self {
        ModelInterner::default()
    }

    /// Id of `name`, interning it if it has not been seen before.
    pub fn intern(&mut self, name: &'static str) -> ModelId {
        let index = self.names.iter().position(|&seen| seen == name).unwrap_or_else(|| {
            self.names.push(name);
            self.names.len() - 1
        });
        ModelId::try_from(index).expect("more than u32::MAX distinct model labels")
    }

    /// The label interned as `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: ModelId) -> &str {
        self.names[id as usize]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no labels have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut interner = ModelInterner::new();
        assert!(interner.is_empty());
        let a = interner.intern("PyMuPDF");
        let b = interner.intern("Nougat");
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(interner.intern("PyMuPDF"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), "PyMuPDF");
        assert_eq!(interner.resolve(b), "Nougat");
    }
}
