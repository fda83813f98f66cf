//! Runtime values and type descriptors.
//!
//! The type universe is the one the paper's IDL mappings support (§2.2):
//! the Java primitives `boolean`, `int`, `long`, `float`, `double`, `char`,
//! `String`, plus user-defined structured types and sequences (WSDL
//! "complex types", CORBA `struct`/sequence).

use std::fmt;

use crate::error::JpieError;

/// Description of a value type, as it appears in method signatures and in
/// generated WSDL / CORBA-IDL documents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeDesc {
    /// No value (method return only).
    Void,
    /// `boolean`
    Bool,
    /// 32-bit signed integer (`int`).
    Int,
    /// 64-bit signed integer (`long`).
    Long,
    /// 32-bit IEEE float (`float`).
    Float,
    /// 64-bit IEEE float (`double`).
    Double,
    /// A single Unicode character (`char`).
    Char,
    /// `String`
    Str,
    /// A user-defined structured type, by name.
    Named(String),
    /// A homogeneous sequence of the element type.
    Seq(Box<TypeDesc>),
}

impl TypeDesc {
    /// Default value of this type (used when a new parameter is added to a
    /// method and existing call sites need an argument — JPie's
    /// declaration/use consistency).
    ///
    /// # Panics
    ///
    /// Panics for [`TypeDesc::Void`], which has no values.
    pub fn default_value(&self) -> Value {
        match self {
            TypeDesc::Void => panic!("void has no values"),
            TypeDesc::Bool => Value::Bool(false),
            TypeDesc::Int => Value::Int(0),
            TypeDesc::Long => Value::Long(0),
            TypeDesc::Float => Value::Float(0.0),
            TypeDesc::Double => Value::Double(0.0),
            TypeDesc::Char => Value::Char('\0'),
            TypeDesc::Str => Value::Str(String::new()),
            TypeDesc::Named(name) => Value::Struct(StructValue::new(name.clone())),
            TypeDesc::Seq(elem) => Value::Seq((**elem).clone(), Vec::new()),
        }
    }

    /// Whether `value` inhabits this type.
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (TypeDesc::Bool, Value::Bool(_)) => true,
            (TypeDesc::Int, Value::Int(_)) => true,
            (TypeDesc::Long, Value::Long(_)) => true,
            (TypeDesc::Float, Value::Float(_)) => true,
            (TypeDesc::Double, Value::Double(_)) => true,
            (TypeDesc::Char, Value::Char(_)) => true,
            (TypeDesc::Str, Value::Str(_)) => true,
            (TypeDesc::Named(n), Value::Struct(s)) => s.type_name == *n,
            (TypeDesc::Seq(elem), Value::Seq(et, items)) => {
                **elem == *et && items.iter().all(|v| elem.admits(v))
            }
            _ => false,
        }
    }

    /// A short, stable name used in diagnostics and interface documents.
    pub fn name(&self) -> String {
        match self {
            TypeDesc::Void => "void".into(),
            TypeDesc::Bool => "boolean".into(),
            TypeDesc::Int => "int".into(),
            TypeDesc::Long => "long".into(),
            TypeDesc::Float => "float".into(),
            TypeDesc::Double => "double".into(),
            TypeDesc::Char => "char".into(),
            TypeDesc::Str => "string".into(),
            TypeDesc::Named(n) => n.clone(),
            TypeDesc::Seq(e) => format!("{}[]", e.name()),
        }
    }
}

impl fmt::Display for TypeDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A structured (user-defined) value: a type name and named fields.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StructValue {
    /// The user-defined type name.
    pub type_name: String,
    /// Field name/value pairs, in declaration order.
    pub fields: Vec<(String, Value)>,
}

impl StructValue {
    /// Creates an empty struct value of the given type.
    pub fn new(type_name: impl Into<String>) -> Self {
        StructValue {
            type_name: type_name.into(),
            fields: Vec::new(),
        }
    }

    /// Adds a field (builder-style).
    pub fn with(mut self, name: impl Into<String>, value: Value) -> Self {
        self.fields.push((name.into(), value));
        self
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (result of `void` methods).
    Null,
    /// `boolean`
    Bool(bool),
    /// `int`
    Int(i32),
    /// `long`
    Long(i64),
    /// `float`
    Float(f32),
    /// `double`
    Double(f64),
    /// `char`
    Char(char),
    /// `String`
    Str(String),
    /// A user-defined structured value.
    Struct(StructValue),
    /// A homogeneous sequence tagged with its element type (so empty
    /// sequences still marshal with a concrete element type).
    Seq(TypeDesc, Vec<Value>),
}

impl Value {
    /// The [`TypeDesc`] this value inhabits.
    pub fn type_desc(&self) -> TypeDesc {
        match self {
            Value::Null => TypeDesc::Void,
            Value::Bool(_) => TypeDesc::Bool,
            Value::Int(_) => TypeDesc::Int,
            Value::Long(_) => TypeDesc::Long,
            Value::Float(_) => TypeDesc::Float,
            Value::Double(_) => TypeDesc::Double,
            Value::Char(_) => TypeDesc::Char,
            Value::Str(_) => TypeDesc::Str,
            Value::Struct(s) => TypeDesc::Named(s.type_name.clone()),
            Value::Seq(elem, _) => TypeDesc::Seq(Box::new(elem.clone())),
        }
    }

    /// Truthiness, for interpreted `if`/`while` conditions.
    ///
    /// # Errors
    ///
    /// Returns a type error for non-boolean values.
    pub fn as_bool(&self) -> Result<bool, JpieError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(JpieError::TypeError(format!(
                "expected boolean, got {}",
                other.type_desc()
            ))),
        }
    }

    /// Numeric widening used by arguments: an `Int` may flow into a `Long`
    /// or `Double` parameter, a `Float` into a `Double`, mirroring Java's
    /// widening conversions. Returns `None` when no lossless conversion
    /// exists.
    pub fn widen_to(&self, target: &TypeDesc) -> Option<Value> {
        if target.admits(self) {
            return Some(self.clone());
        }
        self.converted_to(target)
    }

    /// [`Value::widen_to`] for a value the caller owns: a value that
    /// already inhabits `target` is handed back, not copied. `Err` returns
    /// the unconvertible value for the caller's diagnostic.
    pub(crate) fn widen_into(self, target: &TypeDesc) -> Result<Value, Value> {
        if target.admits(&self) {
            return Ok(self);
        }
        self.converted_to(target).ok_or(self)
    }

    /// The widening conversions proper (the value does not inhabit
    /// `target` as it is).
    fn converted_to(&self, target: &TypeDesc) -> Option<Value> {
        match (self, target) {
            (Value::Int(i), TypeDesc::Long) => Some(Value::Long(i64::from(*i))),
            (Value::Int(i), TypeDesc::Double) => Some(Value::Double(f64::from(*i))),
            (Value::Int(i), TypeDesc::Float) => Some(Value::Float(*i as f32)),
            (Value::Long(l), TypeDesc::Double) => Some(Value::Double(*l as f64)),
            (Value::Float(x), TypeDesc::Double) => Some(Value::Double(f64::from(*x))),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Long(l) => write!(f, "{l}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Double(x) => write!(f, "{x}"),
            Value::Char(c) => write!(f, "{c}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Struct(s) => {
                write!(f, "{}{{", s.type_name)?;
                for (i, (n, v)) in s.fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Seq(_, items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i)
    }
}
impl From<i64> for Value {
    fn from(l: i64) -> Self {
        Value::Long(l)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Double(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_values_admit() {
        for ty in [
            TypeDesc::Bool,
            TypeDesc::Int,
            TypeDesc::Long,
            TypeDesc::Float,
            TypeDesc::Double,
            TypeDesc::Char,
            TypeDesc::Str,
            TypeDesc::Named("Point".into()),
            TypeDesc::Seq(Box::new(TypeDesc::Int)),
        ] {
            let v = ty.default_value();
            assert!(ty.admits(&v), "{ty} should admit its default {v:?}");
            assert_eq!(v.type_desc(), ty);
        }
    }

    #[test]
    #[should_panic(expected = "void has no values")]
    fn void_has_no_default() {
        let _ = TypeDesc::Void.default_value();
    }

    #[test]
    fn admits_checks_struct_name_and_seq_elements() {
        let pt = TypeDesc::Named("Point".into());
        assert!(pt.admits(&Value::Struct(StructValue::new("Point"))));
        assert!(!pt.admits(&Value::Struct(StructValue::new("Line"))));

        let ints = TypeDesc::Seq(Box::new(TypeDesc::Int));
        assert!(ints.admits(&Value::Seq(TypeDesc::Int, vec![Value::Int(1)])));
        assert!(!ints.admits(&Value::Seq(TypeDesc::Str, vec![])));
    }

    #[test]
    fn widening_conversions() {
        assert_eq!(
            Value::Int(7).widen_to(&TypeDesc::Long),
            Some(Value::Long(7))
        );
        assert_eq!(
            Value::Int(7).widen_to(&TypeDesc::Double),
            Some(Value::Double(7.0))
        );
        assert_eq!(
            Value::Float(1.5).widen_to(&TypeDesc::Double),
            Some(Value::Double(1.5))
        );
        assert_eq!(Value::Str("x".into()).widen_to(&TypeDesc::Int), None);
        assert_eq!(Value::Long(1).widen_to(&TypeDesc::Int), None);
    }

    #[test]
    fn type_names() {
        assert_eq!(TypeDesc::Seq(Box::new(TypeDesc::Str)).name(), "string[]");
        assert_eq!(TypeDesc::Named("Msg".into()).to_string(), "Msg");
    }

    #[test]
    fn struct_field_lookup() {
        let s = StructValue::new("Point")
            .with("x", Value::Int(1))
            .with("y", Value::Int(2));
        assert_eq!(s.field("y"), Some(&Value::Int(2)));
        assert!(s.field("z").is_none());
    }

    #[test]
    fn value_display() {
        let s = Value::Struct(StructValue::new("P").with("x", Value::Int(1)));
        assert_eq!(s.to_string(), "P{x: 1}");
        assert_eq!(
            Value::Seq(TypeDesc::Int, vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn as_bool_rejects_non_bool() {
        assert!(Value::Int(1).as_bool().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(3i64), Value::Long(3));
        assert_eq!(Value::from(1.5f64), Value::Double(1.5));
        assert_eq!(Value::from("s"), Value::Str("s".into()));
    }
}
