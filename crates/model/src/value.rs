//! Workflow data items and their values.
//!
//! The paper's workflow packets carry *data items* named like `WF.I1`
//! (workflow inputs), `S1.O2` (output 2 of step S1) — see the sample packet
//! in Figure 7. We model an item name as an [`ItemKey`] (scope + slot) and
//! values as a small dynamic [`Value`] type, since the WFMS treats step
//! programs as black boxes and only ferries their typed inputs/outputs.

use crate::ids::StepId;
use crate::vecmap::VecMap;
use std::fmt;
use std::sync::Arc;

/// Where a data item lives: workflow-level input, or a step's output slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ItemScope {
    /// A workflow input (`WF.I<n>` in the paper's packet rendering).
    WorkflowInput,
    /// An output produced by a step (`S<k>.O<n>`).
    StepOutput(StepId),
}

/// Fully-qualified name of a data item: a scope plus a slot number.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemKey {
    pub scope: ItemScope,
    pub slot: u16,
}

impl ItemKey {
    /// Workflow input slot `n` (rendered `WF.I<n>`).
    pub fn input(slot: u16) -> Self {
        ItemKey {
            scope: ItemScope::WorkflowInput,
            slot,
        }
    }

    /// Output slot `n` of `step` (rendered `S<k>.O<n>`).
    pub fn output(step: StepId, slot: u16) -> Self {
        ItemKey {
            scope: ItemScope::StepOutput(step),
            slot,
        }
    }
}

impl fmt::Display for ItemKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.scope {
            ItemScope::WorkflowInput => write!(f, "WF.I{}", self.slot),
            ItemScope::StepOutput(s) => write!(f, "{}.O{}", s, self.slot),
        }
    }
}

/// A dynamically-typed data value flowing between steps.
///
/// Business data in the paper's examples is numbers and short strings
/// (quantities, part names); we add booleans for branch conditions.
///
/// A value is immutable once a program returns it, so a string is shared,
/// not copied: every packet, data table and history record that carries
/// it holds the one allocation (DESIGN.md §6j).
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Bool(bool),
}

impl Value {
    /// Type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Bool(_) => "bool",
        }
    }

    /// Numeric view: ints widen to floats so mixed comparisons work the way
    /// a workflow designer would expect.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// As bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// As int.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// As str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The data table of one workflow instance (or the slice of it a distributed
/// agent has seen): item key → value.
///
/// Ordered map so that packet renderings and log records are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataEnv {
    items: VecMap<ItemKey, Value>,
}

impl DataEnv {
    /// Create a new, empty value.
    pub fn new() -> Self {
        Self::default()
    }

    /// Value of `key`, if present.
    pub fn get(&self, key: &ItemKey) -> Option<&Value> {
        self.items.get(key)
    }

    /// Insert or overwrite the value of `key`.
    pub fn set(&mut self, key: ItemKey, value: Value) {
        self.items.insert(key, value);
    }

    /// Remove `key`, returning its previous value.
    pub fn remove(&mut self, key: &ItemKey) -> Option<Value> {
        self.items.remove(key)
    }

    /// Drop every output produced by `step` — used when a step is completely
    /// compensated, so stale outputs cannot feed later conditions.
    pub fn clear_step_outputs(&mut self, step: StepId) {
        self.items
            .retain(|k, _| !matches!(k.scope, ItemScope::StepOutput(s) if s == step));
    }

    /// Make room, in one allocation, for the items of `incoming` this table
    /// lacks — what a distributed agent does before it folds an arriving
    /// packet's data in item by item, so the table grows once per packet
    /// and stays exact-fit.
    pub fn reserve_for(&mut self, incoming: &DataEnv) {
        self.items.reserve_missing(incoming.items.keys());
    }

    /// Make room for `n` more items in one allocation.
    pub fn reserve(&mut self, n: usize) {
        self.items.reserve(n);
    }

    /// Merge another environment into this one, later writes winning. This
    /// is how a distributed agent folds the data carried by an arriving
    /// workflow packet into its local instance table.
    pub fn merge_from(&mut self, other: &DataEnv) {
        self.reserve_for(other);
        for (k, v) in &other.items {
            self.items.insert(*k, v.clone());
        }
    }

    /// Iterate over the entries.
    pub fn iter(&self) -> impl Iterator<Item = (&ItemKey, &Value)> {
        self.items.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entries the table has room for without growing.
    pub fn capacity(&self) -> usize {
        self.items.capacity()
    }

    /// Snapshot of the values of `keys`, in order; `None` for missing items.
    /// Used by OCR to compare a step's current inputs against the inputs of
    /// its previous execution.
    pub fn project(&self, keys: &[ItemKey]) -> Vec<Option<Value>> {
        keys.iter().map(|k| self.items.get(k).cloned()).collect()
    }
}

impl IntoIterator for DataEnv {
    type Item = (ItemKey, Value);
    type IntoIter = std::vec::IntoIter<(ItemKey, Value)>;

    /// The entries by value, in key order.
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl FromIterator<(ItemKey, Value)> for DataEnv {
    fn from_iter<T: IntoIterator<Item = (ItemKey, Value)>>(iter: T) -> Self {
        DataEnv {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn item_keys_render_like_figure7() {
        assert_eq!(ItemKey::input(1).to_string(), "WF.I1");
        assert_eq!(ItemKey::output(StepId(2), 1).to_string(), "S2.O1");
    }

    #[test]
    fn env_set_get_merge() {
        let mut a = DataEnv::new();
        a.set(ItemKey::input(1), Value::Int(90));
        let mut b = DataEnv::new();
        b.set(ItemKey::input(1), Value::Int(91));
        b.set(ItemKey::output(StepId(1), 1), Value::from("Gasket"));
        a.merge_from(&b);
        assert_eq!(a.get(&ItemKey::input(1)), Some(&Value::Int(91)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn clear_step_outputs_only_touches_that_step() {
        let mut env = DataEnv::new();
        env.set(ItemKey::output(StepId(1), 1), Value::Int(1));
        env.set(ItemKey::output(StepId(2), 1), Value::Int(2));
        env.set(ItemKey::input(1), Value::Int(3));
        env.clear_step_outputs(StepId(1));
        assert!(env.get(&ItemKey::output(StepId(1), 1)).is_none());
        assert!(env.get(&ItemKey::output(StepId(2), 1)).is_some());
        assert!(env.get(&ItemKey::input(1)).is_some());
    }

    #[test]
    fn a_value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn value_coercions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::from("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
        assert_eq!(Value::Int(7).type_name(), "int");
    }

    #[test]
    fn project_preserves_order_and_misses() {
        let mut env = DataEnv::new();
        env.set(ItemKey::input(2), Value::Int(5));
        let p = env.project(&[ItemKey::input(1), ItemKey::input(2)]);
        assert_eq!(p, vec![None, Some(Value::Int(5))]);
    }
}
