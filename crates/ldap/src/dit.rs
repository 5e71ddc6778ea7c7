//! The Directory Information Tree: a hierarchical entry store with
//! LDAP-style scoped search.
//!
//! GRIS and GIIS both present their information as a DIT; searches carry a
//! base DN, a scope (base / one-level / subtree), a filter, and an optional
//! attribute selection (§4.1).
//!
//! # Index structures
//!
//! The store maintains three indexes beside the primary entry map so the
//! query hot path never scans entries outside the requested scope:
//!
//! * a **parent index** (`children`): parent DN key → set of child DN keys.
//!   [`Scope::One`] becomes a single map lookup instead of testing every
//!   entry's parent.
//! * a **suffix-major order** (`suffix_index`): the DN's RDNs rendered
//!   root-first and joined with `\x00` sort every subtree into one
//!   contiguous key range, so [`Scope::Sub`] on a non-root base is a range
//!   scan over exactly the subtree (`O(log n + m)` for `m` descendants).
//! * an **equality attribute index** (`attr_index`): attribute → normalized
//!   value → DN keys, over a configurable set of indexed attributes.
//!   `objectclass` is always indexed; naming (RDN) attributes are indexed
//!   automatically on first use. `Eq` filter terms over indexed attributes
//!   — including terms nested under `And`/`Or` — are answered from the
//!   index, with candidate-set intersection for `And` and union for `Or`.
//!
//! Search results are always produced in primary-key (DN string) order, so
//! index-served and scan-served queries return identical output and a
//! size-limited result is a prefix of the unlimited one.

use crate::dn::Dn;
use crate::entry::Entry;
use crate::error::{LdapError, Result};
use crate::filter::Filter;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// LDAP search scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// The base entry only (lookup / enquiry).
    Base,
    /// Immediate children of the base.
    One,
    /// The base entry and all descendants (discovery).
    Sub,
}

/// An in-memory DIT. Entries are keyed by DN; hierarchy is implicit in the
/// DN structure, so interior "glue" nodes need not exist for descendants to
/// be stored (providers generate subtrees lazily and sparsely).
///
/// See the [module docs](self) for the index structures maintained beside
/// the primary map and the complexity they buy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dit {
    /// Key: DN rendered in normalized form. BTreeMap gives deterministic
    /// iteration order for reproducible experiment output. Entries are
    /// reference-counted so searches without an attribute selection can
    /// return them without deep-copying.
    entries: BTreeMap<String, Arc<Entry>>,
    /// Parent DN key → keys of its immediate children.
    children: BTreeMap<String, BTreeSet<String>>,
    /// Suffix-major (root-first) rendering of each DN → its primary key.
    /// Every subtree occupies one contiguous range of this map.
    suffix_index: BTreeMap<String, String>,
    /// Indexed attribute → normalized value → keys of entries carrying it.
    attr_index: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    /// Attributes covered by `attr_index`. Always contains `objectclass`;
    /// naming attributes are added (with a one-time backfill) on insert.
    indexed_attrs: BTreeSet<String>,
}

fn key(dn: &Dn) -> String {
    // Matches `Dn`'s `Display` exactly, built with direct pushes — this
    // renders on every insert, remove and bulk build.
    let rdns = dn.rdns();
    let cap = rdns
        .iter()
        .map(|r| r.attr().len() + r.value().len() + 3)
        .sum();
    let mut out = String::with_capacity(cap);
    for (i, rdn) in rdns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(rdn.attr());
        out.push('=');
        out.push_str(rdn.value());
    }
    out
}

/// Primary key of the parent, sliced out of an already-rendered key: a
/// rendered DN is by construction `"<rdn>, " + rendered(parent)`. (Like
/// the rendered primary key itself, this assumes RDN values do not embed
/// `", "` — the whole rendered-key scheme is ambiguous otherwise.)
/// A single-RDN key's parent is the root (rendered as the empty key);
/// only the root itself has no parent.
fn parent_of(k: &str) -> Option<&str> {
    if k.is_empty() {
        None
    } else {
        Some(k.split_once(", ").map_or("", |(_, parent)| parent))
    }
}

/// Suffix-major rendering: RDNs root-first, joined with `\x00`. Because
/// `\x00` sorts below every character that can appear in an RDN, the keys
/// of a subtree rooted at `d` are exactly those in `[rev_key(d),
/// rev_key(d) + "\x01")`.
fn rev_key(dn: &Dn) -> String {
    let rdns = dn.rdns();
    let cap = rdns
        .iter()
        .map(|r| r.attr().len() + r.value().len() + 2)
        .sum();
    let mut out = String::with_capacity(cap);
    for (i, rdn) in rdns.iter().rev().enumerate() {
        if i > 0 {
            out.push('\u{0}');
        }
        out.push_str(rdn.attr());
        out.push('=');
        out.push_str(rdn.value());
    }
    out
}

/// [`rev_key`] derived from an already-rendered primary key by reversing
/// its `", "`-separated components (same embedded-separator caveat as
/// [`parent_of`]), skipping the per-RDN re-render on the bulk-build and
/// mutation hot paths.
fn rev_key_of(k: &str) -> String {
    let mut out = String::with_capacity(k.len());
    for (i, rdn) in k.rsplit(", ").enumerate() {
        if i > 0 {
            out.push('\u{0}');
        }
        out.push_str(rdn);
    }
    out
}

/// Index value normalisation must mirror the filter evaluator's equality
/// semantics (trimmed, case-insensitive), or the index could produce
/// false negatives.
fn norm_value(value: &str) -> String {
    value.trim().to_ascii_lowercase()
}

/// [`norm_value`] without the allocation when the value is already
/// normalized — the common case for machine-generated directory content
/// (hostnames, object classes, stringified numbers), and the bulk
/// builders touch every value of every entry.
fn norm_value_cow(value: &str) -> Cow<'_, str> {
    let t = value.trim();
    if t.len() == value.len() && !t.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Borrowed(t)
    } else {
        Cow::Owned(t.to_ascii_lowercase())
    }
}

/// Bulk-build the suffix index for [`Dit::bulk_load`]. `FromIterator`
/// sorts and packs B-tree nodes directly, so there is no per-entry
/// tree descent.
fn build_suffix(keyed: &[(String, Arc<Entry>)]) -> BTreeMap<String, String> {
    keyed
        .iter()
        .map(|(k, _)| (rev_key_of(k), k.clone()))
        .collect()
}

/// Bulk-build the parent index for [`Dit::bulk_load`]: sort
/// (parent, child) pairs once, then turn each run of equal parents into
/// a child set built from an already-sorted sequence.
fn build_children(keyed: &[(String, Arc<Entry>)]) -> BTreeMap<String, BTreeSet<String>> {
    let mut pairs: Vec<(&str, &str)> = keyed
        .iter()
        .filter_map(|(k, _)| parent_of(k).map(|p| (p, k.as_str())))
        .collect();
    // Keys are unique, so equal pairs cannot exist and an unstable sort
    // (no merge buffer) is safe.
    pairs.sort_unstable();
    let mut groups: Vec<(String, BTreeSet<String>)> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let start = i;
        while i < pairs.len() && pairs[i].0 == pairs[start].0 {
            i += 1;
        }
        let kids: BTreeSet<String> = pairs[start..i].iter().map(|p| p.1.to_owned()).collect();
        groups.push((pairs[start].0.to_owned(), kids));
    }
    groups.into_iter().collect()
}

/// Bulk-build the equality attribute index for [`Dit::bulk_load`]: one
/// flat sort of (attr, value, key) triples, then nested grouping. Equal
/// triples (an entry carrying two values that normalize identically)
/// collapse in the set build, matching the incremental path.
fn build_attr_index(
    keyed: &[(String, Arc<Entry>)],
    indexed: &BTreeSet<String>,
) -> BTreeMap<String, BTreeMap<String, BTreeSet<String>>> {
    // One pass per indexed attribute (the set is small) so the sort only
    // ever compares values, never attribute names.
    indexed
        .iter()
        .filter_map(|a| {
            let mut pairs: Vec<(Cow<'_, str>, &str)> = Vec::new();
            for (k, e) in keyed {
                for v in e.get(a) {
                    pairs.push((norm_value_cow(v.as_str()), k.as_str()));
                }
            }
            if pairs.is_empty() {
                return None;
            }
            // `keyed` is in key order, so the stable sort leaves each
            // value group's keys pre-sorted for the set build.
            pairs.sort_by(|x, y| x.0.cmp(&y.0));
            let mut val_groups: Vec<(String, BTreeSet<String>)> = Vec::new();
            let mut i = 0;
            while i < pairs.len() {
                let start = i;
                while i < pairs.len() && pairs[i].0 == pairs[start].0 {
                    i += 1;
                }
                let keys: BTreeSet<String> =
                    pairs[start..i].iter().map(|p| p.1.to_owned()).collect();
                val_groups.push((pairs[start].0.to_string(), keys));
            }
            Some((a.clone(), val_groups.into_iter().collect()))
        })
        .collect()
}

/// Append `entry` to `out` (shared when no selection, projected otherwise)
/// if the filter matches. Returns `true` once the size limit is reached.
fn push_if_match(
    out: &mut Vec<Arc<Entry>>,
    entry: &Arc<Entry>,
    filter: &Filter,
    selection: &[String],
    limit: usize,
) -> bool {
    if filter.matches(entry) {
        out.push(if selection.is_empty() {
            Arc::clone(entry)
        } else {
            Arc::new(entry.project(selection))
        });
        if out.len() >= limit {
            return true;
        }
    }
    false
}

impl Default for Dit {
    fn default() -> Dit {
        Dit::new()
    }
}

impl Dit {
    /// An empty tree.
    pub fn new() -> Dit {
        let mut dit = Dit {
            entries: BTreeMap::new(),
            children: BTreeMap::new(),
            suffix_index: BTreeMap::new(),
            attr_index: BTreeMap::new(),
            indexed_attrs: BTreeSet::new(),
        };
        dit.indexed_attrs.insert("objectclass".to_owned());
        dit
    }

    /// Number of entries stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The attributes currently served by the equality index.
    pub fn indexed_attrs(&self) -> impl Iterator<Item = &str> {
        self.indexed_attrs.iter().map(String::as_str)
    }

    /// Add `attr` to the set of indexed attributes, backfilling the index
    /// over existing entries (one-time `O(n)`). `objectclass` and every
    /// naming attribute seen at insert time are indexed automatically.
    pub fn add_indexed_attr(&mut self, attr: &str) {
        let a = attr.trim().to_ascii_lowercase();
        if a.is_empty() || !self.indexed_attrs.insert(a.clone()) {
            return;
        }
        let mut idx: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (k, e) in &self.entries {
            for v in e.get(&a) {
                idx.entry(norm_value(v.as_str()))
                    .or_default()
                    .insert(k.clone());
            }
        }
        if !idx.is_empty() {
            self.attr_index.insert(a, idx);
        }
    }

    fn ensure_naming_indexed(&mut self, entry: &Entry) {
        if let Some(rdn) = entry.dn().rdn() {
            if !self.indexed_attrs.contains(rdn.attr()) {
                self.add_indexed_attr(rdn.attr());
            }
        }
    }

    fn index_insert(&mut self, k: &str, entry: &Entry) {
        for a in &self.indexed_attrs {
            let vals = entry.get(a);
            if vals.is_empty() {
                continue;
            }
            let idx = self.attr_index.entry(a.clone()).or_default();
            for v in vals {
                idx.entry(norm_value(v.as_str()))
                    .or_default()
                    .insert(k.to_owned());
            }
        }
    }

    fn index_remove(&mut self, k: &str, entry: &Entry) {
        for a in &self.indexed_attrs {
            let Some(idx) = self.attr_index.get_mut(a) else {
                continue;
            };
            for v in entry.get(a) {
                let nv = norm_value(v.as_str());
                if let Some(set) = idx.get_mut(&nv) {
                    set.remove(k);
                    if set.is_empty() {
                        idx.remove(&nv);
                    }
                }
            }
            if idx.is_empty() {
                self.attr_index.remove(a);
            }
        }
    }

    /// Remove the entry at `k` from the primary map and every index.
    fn remove_key(&mut self, k: &str) -> Option<Arc<Entry>> {
        let arc = self.entries.remove(k)?;
        self.suffix_index.remove(&rev_key_of(k));
        if let Some(pk) = parent_of(k) {
            if let Some(set) = self.children.get_mut(pk) {
                set.remove(k);
                if set.is_empty() {
                    self.children.remove(pk);
                }
            }
        }
        self.index_remove(k, &arc);
        Some(arc)
    }

    /// Install `entry` at `k` (which must equal `key(entry.dn())`),
    /// replacing any previous occupant, and wire up every index.
    fn insert_at(&mut self, k: String, entry: Entry) {
        self.remove_key(&k);
        self.ensure_naming_indexed(&entry);
        self.suffix_index.insert(rev_key_of(&k), k.clone());
        if let Some(pk) = parent_of(&k) {
            if let Some(set) = self.children.get_mut(pk) {
                set.insert(k.clone());
            } else {
                self.children
                    .insert(pk.to_owned(), BTreeSet::from([k.clone()]));
            }
        }
        self.index_insert(&k, &entry);
        self.entries.insert(k, Arc::new(entry));
    }

    /// Insert an entry, failing if one already exists at its DN.
    pub fn add(&mut self, mut entry: Entry) -> Result<()> {
        entry.normalize_naming_attr();
        let k = key(entry.dn());
        if self.entries.contains_key(&k) {
            return Err(LdapError::EntryExists(k));
        }
        self.insert_at(k, entry);
        Ok(())
    }

    /// Insert or replace an entry at its DN.
    pub fn upsert(&mut self, mut entry: Entry) {
        entry.normalize_naming_attr();
        let k = key(entry.dn());
        self.insert_at(k, entry);
    }

    /// Build a tree from a batch of entries in one pass.
    ///
    /// Produces exactly the state `upsert`ing each entry in order would
    /// (later entries win on duplicate DNs), but assembles each index as
    /// one sorted run handed to the B-tree bulk builder instead of paying
    /// a tree descent and index fix-up per entry. Snapshot recovery feeds
    /// this entries already in key order, so the sorts degenerate to
    /// near-linear scans; when the host has more than one core the
    /// independent indexes are built on separate threads.
    pub fn bulk_load(batch: Vec<Entry>) -> Dit {
        let mut keyed: Vec<(String, Arc<Entry>)> = batch
            .into_iter()
            .map(|mut e| {
                e.normalize_naming_attr();
                (key(e.dn()), Arc::new(e))
            })
            .collect();
        // Stable sort + keep-last dedup reproduces upsert's
        // last-writer-wins semantics for duplicate DNs.
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.dedup_by(|later, kept| {
            if later.0 == kept.0 {
                std::mem::swap(later, kept);
                true
            } else {
                false
            }
        });

        // The final indexed set under incremental insertion is
        // `objectclass` plus every naming attribute seen (each arrival
        // backfills over prior entries), so it can be computed up front.
        let mut indexed_attrs = BTreeSet::new();
        indexed_attrs.insert("objectclass".to_owned());
        for (_, e) in &keyed {
            if let Some(rdn) = e.dn().rdn() {
                // Parsed DNs already carry lowercase attribute names, so
                // the membership probe almost never needs the owned
                // lowercase copy.
                let a = rdn.attr().trim();
                if !a.is_empty() && !indexed_attrs.contains(a) {
                    indexed_attrs.insert(a.to_ascii_lowercase());
                }
            }
        }

        let parallel = std::thread::available_parallelism().map_or(1, usize::from) > 1;
        let (suffix_index, children, attr_index) = if parallel {
            std::thread::scope(|s| {
                let sfx = s.spawn(|| build_suffix(&keyed));
                let ch = s.spawn(|| build_children(&keyed));
                let ai = build_attr_index(&keyed, &indexed_attrs);
                (
                    sfx.join().expect("suffix index builder panicked"),
                    ch.join().expect("parent index builder panicked"),
                    ai,
                )
            })
        } else {
            (
                build_suffix(&keyed),
                build_children(&keyed),
                build_attr_index(&keyed, &indexed_attrs),
            )
        };

        Dit {
            entries: keyed.into_iter().collect(),
            children,
            suffix_index,
            attr_index,
            indexed_attrs,
        }
    }

    /// Remove the entry at `dn`. Returns it if present.
    pub fn delete(&mut self, dn: &Dn) -> Option<Entry> {
        let arc = self.remove_key(&key(dn))?;
        Some(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone()))
    }

    /// Remove `dn` and every descendant. Returns the number removed.
    ///
    /// The doomed set is a single contiguous range of the suffix-major
    /// index, so entries outside the subtree are never visited.
    pub fn delete_subtree(&mut self, dn: &Dn) -> usize {
        let doomed: Vec<String> = if dn.is_root() {
            self.entries.keys().cloned().collect()
        } else {
            let prefix = rev_key(dn);
            let mut end = prefix.clone();
            end.push('\u{1}');
            self.suffix_index
                .range(prefix..end)
                .map(|(_, k)| k.clone())
                .collect()
        };
        let n = doomed.len();
        for k in &doomed {
            self.remove_key(k);
        }
        n
    }

    /// Fetch the entry at `dn`.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(&key(dn)).map(Arc::as_ref)
    }

    /// Mutable fetch (copy-on-write when the entry is shared with search
    /// results). Mutating attributes through this handle bypasses the
    /// attribute index; callers changing indexed attributes should
    /// re-`upsert` the entry instead.
    pub fn get_mut(&mut self, dn: &Dn) -> Option<&mut Entry> {
        self.entries.get_mut(&key(dn)).map(Arc::make_mut)
    }

    /// Iterate all entries in deterministic (DN string) order.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.values().map(Arc::as_ref)
    }

    /// Iterate (primary key, shared handle) pairs in key order. Delta
    /// extraction merge-joins two snapshots with this: `Arc::ptr_eq` on
    /// the handles detects unchanged entries without comparing content.
    pub fn iter_shared(&self) -> impl Iterator<Item = (&str, &Arc<Entry>)> {
        self.entries.iter().map(|(k, e)| (k.as_str(), e))
    }

    /// Fetch the shared handle at primary key `k` (a normalized DN
    /// rendering, as yielded by [`iter_shared`](Dit::iter_shared)).
    pub fn get_shared(&self, k: &str) -> Option<&Arc<Entry>> {
        self.entries.get(k)
    }

    /// Keys of entries that could satisfy `filter`, from the equality
    /// index. `None` means the filter is not indexable and every in-scope
    /// entry must be tested. The returned set is a superset of the true
    /// matches (the full filter is always re-evaluated), and is in
    /// primary-key order.
    fn candidate_keys(&self, filter: &Filter) -> Option<Cow<'_, BTreeSet<String>>> {
        match filter {
            Filter::Eq(attr, value) => {
                let a = attr.trim().to_ascii_lowercase();
                if !self.indexed_attrs.contains(&a) {
                    return None;
                }
                Some(
                    match self
                        .attr_index
                        .get(&a)
                        .and_then(|idx| idx.get(&norm_value(value)))
                    {
                        Some(set) => Cow::Borrowed(set),
                        // Indexed attribute, value never seen: nothing matches.
                        None => Cow::Owned(BTreeSet::new()),
                    },
                )
            }
            Filter::And(fs) => {
                // Any indexable conjunct bounds the candidates; intersect
                // all of them. Non-indexable conjuncts are enforced by the
                // re-evaluation pass.
                let mut sets = fs.iter().filter_map(|f| self.candidate_keys(f));
                let mut acc = sets.next()?;
                for s in sets {
                    if acc.is_empty() {
                        break;
                    }
                    acc = Cow::Owned(acc.intersection(&s).cloned().collect());
                }
                Some(acc)
            }
            Filter::Or(fs) => {
                // Sound only when every branch is indexable — a single
                // opaque branch could match entries outside the union.
                let mut acc = BTreeSet::new();
                for f in fs {
                    acc.extend(self.candidate_keys(f)?.iter().cloned());
                }
                Some(Cow::Owned(acc))
            }
            _ => None,
        }
    }

    /// Scoped, filtered search returning shared handles: entries are
    /// reference-counted, so matches with an empty `selection` are
    /// returned without copying any attribute data. This is the query
    /// hot path used by the servers; [`Dit::search`] wraps it for callers
    /// needing owned entries.
    pub fn search_shared(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        selection: &[String],
        size_limit: usize,
    ) -> Vec<Arc<Entry>> {
        let limit = if size_limit == 0 {
            usize::MAX
        } else {
            size_limit
        };
        let mut out = Vec::new();
        match scope {
            Scope::Base => {
                if let Some(e) = self.entries.get(&key(base)) {
                    push_if_match(&mut out, e, filter, selection, limit);
                }
            }
            Scope::One => {
                let Some(kids) = self.children.get(&key(base)) else {
                    return out;
                };
                match self.candidate_keys(filter) {
                    Some(cands) => {
                        // Iterate the smaller set, membership-test the
                        // other; both are sorted by primary key.
                        let (walk, probe): (&BTreeSet<String>, &BTreeSet<String>) =
                            if cands.len() < kids.len() {
                                (&cands, kids)
                            } else {
                                (kids, &cands)
                            };
                        for k in walk {
                            if !probe.contains(k) {
                                continue;
                            }
                            let Some(e) = self.entries.get(k) else {
                                continue;
                            };
                            if push_if_match(&mut out, e, filter, selection, limit) {
                                break;
                            }
                        }
                    }
                    None => {
                        for k in kids {
                            let Some(e) = self.entries.get(k) else {
                                continue;
                            };
                            if push_if_match(&mut out, e, filter, selection, limit) {
                                break;
                            }
                        }
                    }
                }
            }
            Scope::Sub => {
                if let Some(cands) = self.candidate_keys(filter) {
                    for k in cands.iter() {
                        let Some(e) = self.entries.get(k) else {
                            continue;
                        };
                        if e.dn().is_under(base)
                            && push_if_match(&mut out, e, filter, selection, limit)
                        {
                            break;
                        }
                    }
                } else if base.is_root() {
                    for e in self.entries.values() {
                        if push_if_match(&mut out, e, filter, selection, limit) {
                            break;
                        }
                    }
                } else {
                    // Range-scan exactly the subtree in suffix-major
                    // order, then restore primary-key output order.
                    let prefix = rev_key(base);
                    let mut end = prefix.clone();
                    end.push('\u{1}');
                    let mut keys: Vec<&String> = self
                        .suffix_index
                        .range(prefix..end)
                        .map(|(_, k)| k)
                        .collect();
                    keys.sort_unstable();
                    for k in keys {
                        let Some(e) = self.entries.get(k) else {
                            continue;
                        };
                        if push_if_match(&mut out, e, filter, selection, limit) {
                            break;
                        }
                    }
                }
            }
        }
        out
    }

    /// Scoped, filtered search. Returns matching entries, projected onto
    /// `selection` when non-empty. `size_limit` of 0 means unlimited.
    pub fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        selection: &[String],
        size_limit: usize,
    ) -> Vec<Entry> {
        self.search_shared(base, scope, filter, selection, size_limit)
            .into_iter()
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
            .collect()
    }

    /// Immediate children of `dn` (by DN structure), via the parent index.
    pub fn children(&self, dn: &Dn) -> Vec<&Entry> {
        match self.children.get(&key(dn)) {
            Some(kids) => kids
                .iter()
                .filter_map(|k| self.entries.get(k))
                .map(Arc::as_ref)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Re-home every entry under a new suffix: each stored DN `d` becomes
    /// `d.under(suffix)`. Used when a directory mounts a provider's
    /// namespace inside its own (Figure 5).
    pub fn rebased(&self, suffix: &Dn) -> Dit {
        let mut out = Dit::new();
        // Entries were normalized on insert and rebasing preserves the
        // most-specific RDN, so re-normalization is unnecessary; carrying
        // the indexed-attribute set over avoids per-entry backfills.
        out.indexed_attrs = self.indexed_attrs.clone();
        for e in self.entries.values() {
            let mut e = (**e).clone();
            e.set_dn(e.dn().under(suffix));
            let k = key(e.dn());
            out.insert_at(k, e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dit {
        let mut dit = Dit::new();
        dit.add(
            Entry::at("hn=hostX")
                .unwrap()
                .with_class("computer")
                .with("system", "mips irix"),
        )
        .unwrap();
        dit.add(
            Entry::at("queue=default, hn=hostX")
                .unwrap()
                .with_class("service")
                .with_class("queue")
                .with("dispatchtype", "immediate"),
        )
        .unwrap();
        dit.add(
            Entry::at("perf=load5, hn=hostX")
                .unwrap()
                .with_class("perf")
                .with_class("loadaverage")
                .with("load5", 3.2f64),
        )
        .unwrap();
        dit.add(
            Entry::at("store=scratch, hn=hostX")
                .unwrap()
                .with_class("storage")
                .with_class("filesystem")
                .with("free", 33515i64),
        )
        .unwrap();
        dit.add(
            Entry::at("hn=hostY")
                .unwrap()
                .with_class("computer")
                .with("system", "linux"),
        )
        .unwrap();
        dit
    }

    /// Structural equality across every field (entries and all three
    /// indexes): `Debug` renders the private BTree maps deterministically.
    fn assert_same_dit(a: &Dit, b: &Dit) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn bulk_load_matches_sequential_upsert() {
        let batch = vec![
            Entry::at("hn=hostB").unwrap().with_class("computer"),
            Entry::at("queue=Default, hn=hostB")
                .unwrap()
                .with_class("service")
                .with("dispatchtype", "  Immediate "),
            Entry::at("hn=hostA")
                .unwrap()
                .with_class("computer")
                .with("system", "linux"),
            Entry::at("perf=load5, hn=hostA")
                .unwrap()
                .with_class("perf")
                .with("load5", 1.5f64),
            // Duplicate DN: the later entry must win, as with upsert.
            Entry::at("hn=hostA")
                .unwrap()
                .with_class("computer")
                .with("system", "irix"),
            // Second naming attribute exercises the indexed-attr backfill.
            Entry::at("vo=alpha").unwrap().with_class("organization"),
        ];
        let mut sequential = Dit::new();
        for e in batch.clone() {
            sequential.upsert(e);
        }
        let bulk = Dit::bulk_load(batch);
        assert_same_dit(&bulk, &sequential);
        assert_eq!(
            bulk.indexed_attrs().collect::<Vec<_>>(),
            ["hn", "objectclass", "perf", "queue", "vo"]
        );
    }

    #[test]
    fn bulk_load_of_empty_batch_is_new() {
        assert_same_dit(&Dit::bulk_load(Vec::new()), &Dit::new());
    }

    #[test]
    fn bulk_load_serves_indexed_searches() {
        let mut batch = Vec::new();
        for i in 0..50 {
            batch.push(
                Entry::at(&format!("hn=host{i}"))
                    .unwrap()
                    .with_class("computer")
                    .with("system", if i % 2 == 0 { "linux" } else { "irix" }),
            );
            batch.push(
                Entry::at(&format!("queue=default, hn=host{i}"))
                    .unwrap()
                    .with_class("service"),
            );
        }
        let dit = Dit::bulk_load(batch);
        assert_eq!(dit.len(), 100);
        let hits = dit.search(
            &Dn::root(),
            Scope::Sub,
            &Filter::parse("(objectclass=service)").unwrap(),
            &[],
            0,
        );
        assert_eq!(hits.len(), 50);
        let one = dit.search(
            &Dn::parse("hn=host7").unwrap(),
            Scope::One,
            &Filter::always(),
            &[],
            0,
        );
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].dn().to_string(), "queue=default, hn=host7");
    }

    #[test]
    fn add_rejects_duplicates() {
        let mut dit = sample();
        let dup = Entry::at("hn=hostX").unwrap().with_class("computer");
        assert!(matches!(dit.add(dup), Err(LdapError::EntryExists(_))));
    }

    #[test]
    fn base_scope_is_lookup() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Base, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn(), &base);
    }

    #[test]
    fn one_scope_lists_children() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::One, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|e| e.dn().parent().as_ref() == Some(&base)));
    }

    #[test]
    fn sub_scope_includes_base_and_descendants() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 4);
    }

    #[test]
    fn root_subtree_sees_everything() {
        let dit = sample();
        let hits = dit.search(&Dn::root(), Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn filter_applies_within_scope() {
        let dit = sample();
        let f = Filter::parse("(objectclass=computer)").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn selection_projects_attributes() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let hits = dit.search(&base, Scope::Base, &Filter::always(), &["system".into()], 0);
        assert_eq!(hits[0].attr_count(), 1);
    }

    #[test]
    fn size_limit_truncates() {
        let dit = sample();
        let hits = dit.search(&Dn::root(), Scope::Sub, &Filter::always(), &[], 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn delete_subtree_removes_descendants() {
        let mut dit = sample();
        let n = dit.delete_subtree(&Dn::parse("hn=hostX").unwrap());
        assert_eq!(n, 4);
        assert_eq!(dit.len(), 1);
    }

    #[test]
    fn rebase_moves_namespace() {
        let dit = sample();
        let org = Dn::parse("o=O1").unwrap();
        let rebased = dit.rebased(&org);
        assert_eq!(rebased.len(), dit.len());
        assert!(rebased.get(&Dn::parse("hn=hostX, o=O1").unwrap()).is_some());
        assert!(rebased.get(&Dn::parse("hn=hostX").unwrap()).is_none());
    }

    #[test]
    fn naming_attr_added_on_insert() {
        let dit = sample();
        let e = dit.get(&Dn::parse("hn=hostX").unwrap()).unwrap();
        assert_eq!(e.get_str("hn"), Some("hostX"));
    }

    #[test]
    fn subtree_excludes_sibling_with_prefix_name() {
        // "hn=hostXY" must not be mistaken for a descendant of
        // "hn=hostX" by the suffix-major range scan.
        let mut dit = sample();
        dit.add(Entry::at("hn=hostXY").unwrap().with_class("computer"))
            .unwrap();
        let base = Dn::parse("hn=hostX").unwrap();
        // Non-indexable filter forces the range-scan path.
        let f = Filter::parse("(system=*)").unwrap();
        let hits = dit.search(&base, Scope::Sub, &f, &[], 0);
        assert!(hits.iter().all(|e| e.dn().is_under(&base)));
        let all = dit.search(&base, Scope::Sub, &Filter::always(), &[], 0);
        assert_eq!(all.len(), 4, "hostXY is a sibling, not a descendant");
    }

    #[test]
    fn naming_attr_queries_use_equality_index() {
        let dit = sample();
        // "hn" was auto-indexed when hn=hostX was inserted.
        assert!(dit.indexed_attrs().any(|a| a == "hn"));
        let f = Filter::parse("(hn=hostY)").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), "hn=hostY");
    }

    #[test]
    fn index_lookup_is_case_and_space_insensitive() {
        let dit = sample();
        let f = Filter::parse("(objectclass=COMPUTER)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
        let f = Filter::Eq("objectclass".into(), "  Computer ".into());
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
    }

    #[test]
    fn and_intersects_candidate_sets() {
        let dit = sample();
        let f = Filter::parse("(&(objectclass=computer)(hn=hostX))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), "hn=hostX");
    }

    #[test]
    fn or_unions_candidate_sets() {
        let dit = sample();
        let f = Filter::parse("(|(hn=hostX)(hn=hostY))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn or_with_unindexable_branch_still_correct() {
        let dit = sample();
        // The substring branch is not indexable, so the whole Or must
        // fall back to a scan rather than return only index hits.
        let f = Filter::parse("(|(hn=hostY)(system=mips*))").unwrap();
        let hits = dit.search(&Dn::root(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn search_shared_avoids_copies_without_selection() {
        let dit = sample();
        let base = Dn::parse("hn=hostX").unwrap();
        let shared = dit.search_shared(&base, Scope::Base, &Filter::always(), &[], 0);
        let stored = dit.get(&base).unwrap();
        assert!(std::ptr::eq(shared[0].as_ref(), stored));
    }

    #[test]
    fn upsert_and_delete_keep_indexes_consistent() {
        let mut dit = sample();
        // Re-class hostY: old class must leave the index, new one enter.
        dit.upsert(Entry::at("hn=hostY").unwrap().with_class("storage"));
        let f = Filter::parse("(objectclass=computer)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 1);
        let f = Filter::parse("(objectclass=storage)").unwrap();
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 2);
        // Delete drops the entry from every index.
        dit.delete(&Dn::parse("hn=hostY").unwrap());
        assert_eq!(dit.search(&Dn::root(), Scope::Sub, &f, &[], 0).len(), 1);
        let one = dit.search(&Dn::root(), Scope::One, &Filter::always(), &[], 0);
        assert_eq!(one.len(), 1, "parent index updated on delete");
    }

    #[test]
    fn children_uses_parent_index() {
        let dit = sample();
        let kids = dit.children(&Dn::parse("hn=hostX").unwrap());
        assert_eq!(kids.len(), 3);
        let none = dit.children(&Dn::parse("hn=absent").unwrap());
        assert!(none.is_empty());
        let top = dit.children(&Dn::root());
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn rebased_tree_answers_indexed_queries() {
        let dit = sample();
        let rebased = dit.rebased(&Dn::parse("o=O1").unwrap());
        let f = Filter::parse("(objectclass=computer)").unwrap();
        let hits = rebased.search(&Dn::parse("o=O1").unwrap(), Scope::Sub, &f, &[], 0);
        assert_eq!(hits.len(), 2);
        let one = rebased.search(
            &Dn::parse("hn=hostX, o=O1").unwrap(),
            Scope::One,
            &Filter::always(),
            &[],
            0,
        );
        assert_eq!(one.len(), 3);
    }
}
