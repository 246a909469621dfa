//! Relation schemas.
//!
//! A [`Schema`] is an ordered list of named [`Attribute`]s with a designated
//! key attribute (the paper assumes every vertical fragment carries the key;
//! we model the key explicitly so partitioners can enforce that).

use crate::RelError;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within its schema.
pub type AttrId = u16;

/// A named, typed-by-convention attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within the schema.
    pub name: String,
}

impl Attribute {
    /// New attribute with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Attribute { name: name.into() }
    }
}

/// A relation schema: name, attributes, and the key attribute.
///
/// Schemas are immutable once built and shared via `Arc` between fragments,
/// detectors and workload generators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Vec<Attribute>,
    key: AttrId,
}

impl Schema {
    /// Build a schema. `key` names the key attribute and must be present.
    pub fn new(
        name: impl Into<String>,
        attr_names: &[&str],
        key: &str,
    ) -> Result<Arc<Self>, RelError> {
        let attrs: Vec<Attribute> = attr_names.iter().map(|n| Attribute::new(*n)).collect();
        let key_id = attrs
            .iter()
            .position(|a| a.name == key)
            .ok_or_else(|| RelError::UnknownAttribute(key.to_string()))?;
        // Reject duplicate attribute names.
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(RelError::UnknownAttribute(format!(
                    "duplicate attribute `{}`",
                    a.name
                )));
            }
        }
        Ok(Arc::new(Schema {
            name: name.into(),
            attrs,
            key: key_id as AttrId,
        }))
    }

    /// Schema (relation) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// The key attribute id.
    pub fn key(&self) -> AttrId {
        self.key
    }

    /// All attributes in declaration order.
    pub(crate) fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Attribute id for `name`.
    pub fn attr_id(&self, name: &str) -> Result<AttrId, RelError> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| i as AttrId)
            .ok_or_else(|| RelError::UnknownAttribute(name.to_string()))
    }

    /// Attribute name for `id` (panics on out-of-range, which indicates a
    /// programming error rather than bad data).
    pub fn attr_name(&self, id: AttrId) -> &str {
        &self.attrs[id as usize].name
    }

    /// All attribute ids.
    pub fn all_attr_ids(&self) -> Vec<AttrId> {
        (0..self.attrs.len() as AttrId).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i == self.key as usize {
                write!(f, "*{}", a.name)?;
            } else {
                write!(f, "{}", a.name)?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emp() -> Arc<Schema> {
        Schema::new("EMP", &["id", "name", "city", "zip"], "id").unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = emp();
        assert_eq!(s.attr_id("id").unwrap(), 0);
        assert_eq!(s.attr_id("zip").unwrap(), 3);
        assert_eq!(s.attr_name(2), "city");
        assert_eq!(s.key(), 0);
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn unknown_attribute_is_error() {
        let s = emp();
        assert!(matches!(
            s.attr_id("salary"),
            Err(RelError::UnknownAttribute(_))
        ));
        assert!(Schema::new("R", &["a", "b"], "c").is_err());
    }

    #[test]
    fn duplicate_attribute_rejected() {
        assert!(Schema::new("R", &["a", "b", "a"], "a").is_err());
    }

    #[test]
    fn display_marks_key() {
        assert_eq!(emp().to_string(), "EMP(*id, name, city, zip)");
    }
}
