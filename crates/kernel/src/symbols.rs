//! String interning for the frame path: a process-wide [`SymbolTable`]
//! mapping column headers, machine ids and monitor names to dense `u32`
//! [`SymId`]s, plus [`Label`] — a shared string that can carry its id.
//!
//! This module lives in the kernel crate because the kernel is where most
//! labels are born: a task's command is a [`Label`] from its spawn spec on
//! and a user's name from `add_user` on, so filling a `/proc` read, and
//! then a tiptop row (`tiptop_core::render::Row`), bumps a refcount instead
//! of copying a `String`. `tiptop_core` re-exports this module as
//! `tiptop_core::symbols`.
//!
//! Most labels — every command and user name — are only ever compared and
//! printed as text, so [`Label::new`] leaves the table alone: spawning
//! uniquely named jobs does not grow it. Labels that a consumer keys by id
//! (a cluster shard's machine id and monitor names, which the window sink
//! reads per frame) are built with [`Label::interned`], which interns once
//! and stores the id, so every clone answers [`Label::sym`] with a field
//! read.
//!
//! The table is append-only and process-global so ids resolve anywhere (a
//! row built by a bare monitor and one built inside a cluster shard agree).
//! Id *values* depend on interning order — on a fleet, on which worker
//! thread reaches a name first — so they must never be persisted or
//! used to order output: resolve to text at any boundary that outlives the
//! process, and sort by text.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock, RwLock};

/// Interned string id. `Copy`, dense, and meaningless across processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

#[derive(Default)]
struct Inner {
    ids: HashMap<Arc<str>, SymId>,
    names: Vec<Arc<str>>,
}

/// An append-only, thread-safe string interner.
#[derive(Default)]
pub struct SymbolTable {
    inner: RwLock<Inner>,
}

impl SymbolTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide table used by [`intern`]/[`resolve`]/[`lookup`].
    pub fn global() -> &'static SymbolTable {
        static GLOBAL: OnceLock<SymbolTable> = OnceLock::new();
        GLOBAL.get_or_init(SymbolTable::new)
    }

    /// Id of `s`, interning it on first sight.
    pub fn intern(&self, s: &str) -> SymId {
        if let Some(&id) = self.inner.read().expect("symbol table poisoned").ids.get(s) {
            return id;
        }
        let mut inner = self.inner.write().expect("symbol table poisoned");
        if let Some(&id) = inner.ids.get(s) {
            return id; // raced with another writer
        }
        let name: Arc<str> = Arc::from(s);
        let id = SymId(inner.names.len() as u32);
        inner.names.push(name.clone());
        inner.ids.insert(name, id);
        id
    }

    /// Id of `s` if it was ever interned.
    pub fn lookup(&self, s: &str) -> Option<SymId> {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .ids
            .get(s)
            .copied()
    }

    /// The string behind `id`. Panics on an id from another table.
    pub fn resolve(&self, id: SymId) -> Arc<str> {
        self.inner.read().expect("symbol table poisoned").names[id.0 as usize].clone()
    }

    pub fn len(&self) -> usize {
        self.inner
            .read()
            .expect("symbol table poisoned")
            .names
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for SymbolTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SymbolTable")
            .field("len", &self.len())
            .finish()
    }
}

/// Intern `s` in the process-wide table.
pub fn intern(s: &str) -> SymId {
    SymbolTable::global().intern(s)
}

/// Id of `s` in the process-wide table, if ever interned.
pub fn lookup(s: &str) -> Option<SymId> {
    SymbolTable::global().lookup(s)
}

/// The string behind a process-wide id.
pub fn resolve(id: SymId) -> Arc<str> {
    SymbolTable::global().resolve(id)
}

/// A shared, immutable string label (command, user name, machine id,
/// monitor name), carrying its interned id if built with
/// [`Label::interned`]. Cloning is a refcount bump; comparisons against
/// `&str`/`String` work directly, so code written against `String` labels
/// keeps reading naturally.
///
/// `Eq`, `Hash`, `Ord` and `Borrow<str>` all follow the text, so a map
/// keyed by labels is found by `&str` and iterates in text order, and two
/// labels of one text are equal whether or not either was interned.
#[derive(Clone)]
pub struct Label {
    text: Arc<str>,
    sym: Option<SymId>,
}

impl Label {
    pub fn new(s: impl AsRef<str>) -> Self {
        Label::from(Arc::<str>::from(s.as_ref()))
    }

    /// A label whose id is interned now and stored, so it and every clone
    /// answer [`Label::sym`] with a field read — for labels a consumer
    /// keys by id.
    pub fn interned(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        Label {
            text: Arc::from(s),
            sym: Some(intern(s)),
        }
    }

    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// This label's id in the process-wide table: the stored id of a label
    /// built with [`Label::interned`], else a table lookup (interning the
    /// text if new) on every call.
    pub fn sym(&self) -> SymId {
        self.sym.unwrap_or_else(|| intern(&self.text))
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        Arc::ptr_eq(&self.text, &other.text) || self.text == other.text
    }
}

impl Eq for Label {}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Label) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Label) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.text
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(s)
    }
}

impl From<&String> for Label {
    fn from(s: &String) -> Self {
        Label::new(s)
    }
}

impl From<Arc<str>> for Label {
    fn from(text: Arc<str>) -> Self {
        Label { text, sym: None }
    }
}

impl From<&Label> for Label {
    fn from(l: &Label) -> Self {
        l.clone()
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Label {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Label> for str {
    fn eq(&self, other: &Label) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Label> for &str {
    fn eq(&self, other: &Label) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Label> for String {
    fn eq(&self, other: &Label) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves() {
        let t = SymbolTable::new();
        let a = t.intern("IPC");
        let b = t.intern("IPC");
        let c = t.intern("%CPU");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(&*t.resolve(a), "IPC");
        assert_eq!(&*t.resolve(c), "%CPU");
        assert_eq!(t.lookup("IPC"), Some(a));
        assert_eq!(t.lookup("never-seen"), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn global_table_is_shared() {
        let a = intern("symbols-test-global");
        let b = intern("symbols-test-global");
        assert_eq!(a, b);
        assert_eq!(&*resolve(a), "symbols-test-global");
    }

    #[test]
    fn labels_compare_with_plain_strings() {
        let l = Label::new("node-a");
        assert_eq!(l, "node-a");
        assert_eq!("node-a", l);
        assert_eq!(l, "node-a".to_string());
        assert_eq!(l.clone(), l);
        assert_eq!(format!("{l}"), "node-a");
        assert_eq!(&l[..4], "node");
        let map: std::collections::BTreeMap<Label, u32> = [(l.clone(), 1)].into();
        assert_eq!(map.get("node-a"), Some(&1), "Borrow<str> lookup");
    }

    #[test]
    fn labels_of_one_text_are_one_label() {
        let text = "symbols-test-label";
        let a = Label::new(text);
        let b = Label::from(text.to_string());
        let c = Label::from(Arc::<str>::from(text));
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(a.sym(), b.sym());
        assert_eq!(b.sym(), c.sym());
        assert_eq!(a.sym(), intern(text), "the id is the table's id");
        assert_eq!(lookup(text), Some(a.sym()));
        assert_ne!(a, Label::new("symbols-test-label-2"));
    }

    #[test]
    fn only_interned_labels_enter_the_table() {
        let text = "symbols-test-plain";
        let a = Label::new(text);
        assert_eq!(lookup(text), None, "a plain label interns nothing");
        assert_eq!(a.sym, None);
        let id = a.sym();
        assert_eq!(lookup(text), Some(id), "asking for the id interns it");

        let text = "symbols-test-interned";
        let b = Label::interned(text);
        assert_eq!(lookup(text), Some(b.sym()));
        assert_eq!(b.clone().sym, Some(b.sym()), "clones carry the id");
        assert_eq!(b, Label::new(text), "equality ignores the stored id");
    }

    #[test]
    fn labels_hash_and_order_by_text() {
        // Intern in reverse text order so id order and text order differ.
        let z = Label::interned("symbols-test-order-z");
        let a = Label::interned("symbols-test-order-a");
        assert!(z.sym() < a.sym());
        assert!(a < z, "Ord follows the text, not the id");
        let mut sorted = vec![z.clone(), a.clone()];
        sorted.sort();
        assert_eq!(sorted, [a.clone(), z.clone()]);

        let map: HashMap<Label, u32> = [(a.clone(), 1), (z.clone(), 2)].into();
        assert_eq!(
            map.get("symbols-test-order-a"),
            Some(&1),
            "Hash agrees with str"
        );
        assert_eq!(map.get("symbols-test-order-z"), Some(&2));
        assert_eq!(map.get("symbols-test-order-none"), None);
    }

    #[test]
    fn concurrent_interning_yields_one_id_per_string() {
        let t = Arc::new(SymbolTable::new());
        let ids: Vec<SymId> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let t = t.clone();
                    s.spawn(move || t.intern("contended"))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(t.len(), 1);
    }
}
