//! Undo/redo records.
//!
//! Each edit snapshots the method table and field declarations before and
//! after the mutation; undo restores the *before* image, redo the *after*
//! image. Snapshots are cheap: interpreted bodies are `Arc`-shared,
//! copy-on-write blocks and native bodies are `Arc`-shared closures, so a
//! record holds signatures plus references.

use crate::class::{DynamicMethod, MethodId, ParamId};
use crate::value::TypeDesc;

/// Human-readable description of one edit, used in diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EditLabel {
    AddMethod(String),
    RemoveMethod(MethodId),
    RenameMethod(MethodId),
    SetDistributed(MethodId, bool),
    SetReturnType(MethodId),
    AddParam(MethodId, String),
    RemoveParam(MethodId, ParamId),
    RenameParam(MethodId, ParamId),
    ReorderParams(MethodId),
    SetBody(MethodId),
    AddField(String),
    RenameField(String),
    RemoveField(String),
}

/// One entry on the undo/redo stack.
#[derive(Debug, Clone)]
pub(crate) struct EditRecord {
    #[allow(dead_code)] // retained for diagnostics / future history UI
    pub(crate) label: EditLabel,
    pub(crate) before_methods: Vec<DynamicMethod>,
    pub(crate) before_fields: Vec<(String, TypeDesc)>,
    pub(crate) after_methods: Vec<DynamicMethod>,
    pub(crate) after_fields: Vec<(String, TypeDesc)>,
}
