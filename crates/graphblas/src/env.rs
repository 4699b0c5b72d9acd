//! Environment knobs: the one place a `GRAPHBLAS_*` / `LAGRAPH_*`
//! variable is read and validated.
//!
//! Every reader in the workspace goes through [`var`]. An unset or blank
//! variable means "use the default"; a value the caller's parser rejects
//! also falls back to the default, after a one-shot
//! [`crate::trace::warn_once`] diagnostic keyed by the variable's own
//! name, in one message shape. [`boolean`] is the one on/off vocabulary.

/// The on/off vocabulary every boolean knob accepts (case-insensitive):
/// `0`/`off`/`false`/`no` and `1`/`on`/`true`/`yes`.
pub fn boolean(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "0" | "off" | "false" | "no" => Some(false),
        "1" | "on" | "true" | "yes" => Some(true),
        _ => None,
    }
}

/// Read the environment variable `name` and hand its trimmed value to
/// `parse`. `None` means "use the default": the variable is unset or
/// blank, or `parse` rejected it — the latter warns once, naming what
/// was `expected`.
pub fn var<T>(
    name: &'static str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    check(name, std::env::var(name).ok().as_deref(), expected, parse)
}

/// [`var`] on an already-fetched value, so unit tests exercise the
/// validation without touching the process environment.
pub(crate) fn check<T>(
    name: &'static str,
    raw: Option<&str>,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = raw?;
    let value = raw.trim();
    if value.is_empty() {
        return None;
    }
    let parsed = parse(value);
    if parsed.is_none() {
        crate::trace::warn_once(
            name,
            &format!("ignoring invalid {name}={raw:?} (expected {expected})"),
        );
    }
    parsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_boolean_vocabulary() {
        for v in ["0", "off", "false", "no", "OFF", "No"] {
            assert_eq!(boolean(v), Some(false), "{v}");
        }
        for v in ["1", "on", "true", "yes", "On", "YES"] {
            assert_eq!(boolean(v), Some(true), "{v}");
        }
        for v in ["", "2", "enable", "burble"] {
            assert_eq!(boolean(v), None, "{v}");
        }
    }

    #[test]
    fn unset_and_blank_are_the_default_and_values_are_trimmed() {
        let int = |v: &str| v.parse::<usize>().ok();
        assert_eq!(check("ENV_TEST_UNSET", None, "an integer", int), None);
        assert_eq!(check("ENV_TEST_BLANK", Some("  "), "an integer", int), None);
        assert_eq!(check("ENV_TEST_TRIM", Some(" 8 "), "an integer", int), Some(8));
        assert_eq!(check("ENV_TEST_BAD", Some("lots"), "an integer", int), None);
    }
}
