/// Not listed: `crates/lint` defines none of the entries.
pub fn lint_only() {}
