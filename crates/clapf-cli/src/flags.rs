//! One flag table per command.
//!
//! A command declares each flag once, as a [`Flag`] row: name, [`Kind`]
//! of value (with its range), [`Preset`] and help line. Everything else is
//! generic over the table: [`parse`] does lookup, "requires a value",
//! unknown-flag rejection, typed parsing and range checks; [`synopsis`]
//! and [`describe`] render usage text; [`render`] turns values back into
//! an argv. The `clapf` subcommands and the bench binaries share it.

use std::ops::{Bound, RangeBounds};
use std::path::PathBuf;

/// What a flag's value is, and the check it must pass.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Kind {
    /// A file or directory path.
    Path,
    /// Free text: an address, a name, a dataset tag.
    Text,
    /// Present or absent; takes no value.
    Switch,
    /// One of these words, held as its index.
    Choice(&'static [&'static str]),
    /// A number between the bounds.
    Float(Bound<f64>, Bound<f64>),
    /// A non-negative integer: no sign, fraction or float rounding.
    Count {
        /// Smallest value kept.
        min: u64,
        /// Largest value accepted.
        max: u64,
        /// Raise a value below `min` to it (0 meaning 1) instead of failing.
        clamp: bool,
    },
    /// A 64-bit seed; every bit is kept.
    Seed,
}

impl Kind {
    /// Any non-negative `usize`.
    pub const COUNT: Kind = Kind::at_least(0);
    /// Any non-negative `usize`, 0 meaning 1.
    pub const COUNT_OR_ONE: Kind = Kind::Count {
        min: 1,
        max: usize::MAX as u64,
        clamp: true,
    };

    /// A `usize` of at least `min`.
    pub const fn at_least(min: u64) -> Kind {
        Kind::Count {
            min,
            max: usize::MAX as u64,
            clamp: false,
        }
    }

    /// Parses and checks one value of this kind for flag `name`.
    fn parse(self, name: &str, v: &str) -> Result<Value, String> {
        match self {
            Kind::Path | Kind::Text => Ok(Value::Text(v.to_string())),
            Kind::Switch => unreachable!("a switch takes no value"),
            Kind::Choice(words) => words
                .iter()
                .position(|w| *w == v)
                .map(Value::Choice)
                .ok_or_else(|| {
                    let what = name.trim_start_matches('-').replace('-', " ");
                    format!("unknown {what} {v:?} (expected {})", words.join(" | "))
                }),
            Kind::Float(lo, hi) => {
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("{name} expects a number, got {v:?}"))?;
                if (lo, hi).contains(&x) {
                    return Ok(Value::Float(x));
                }
                let end = |b: Bound<f64>, inf| match b {
                    Bound::Included(x) | Bound::Excluded(x) => x.to_string(),
                    Bound::Unbounded => inf,
                };
                let (l, r) = match (lo, hi) {
                    (Bound::Included(_), Bound::Included(_)) => ('[', ']'),
                    (Bound::Included(_), _) => ('[', ')'),
                    (_, Bound::Included(_)) => ('(', ']'),
                    _ => ('(', ')'),
                };
                Err(format!(
                    "{name} must be in {l}{}, {}{r}, got {x}",
                    end(lo, "-inf".into()),
                    end(hi, "inf".into())
                ))
            }
            Kind::Seed => parse_int(name, v).map(Value::Int),
            Kind::Count { min, max, clamp } => match parse_int::<u64>(name, v)? {
                n if n > max => Err(format!("{name} must be at most {max}, got {n}")),
                n if n < min && !clamp => Err(format!("{name} must be at least {min}, got {n}")),
                n => Ok(Value::Int(n.max(min))),
            },
        }
    }
}

/// Parses a count or seed: an integer of `T`'s range, nothing else,
/// naming the flag on error.
pub fn parse_int<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got {v:?}"))
}

/// What a flag is worth when it is not given.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Preset {
    /// The command fails without it.
    Required,
    /// No value (a switch: off).
    Absent,
    /// This text, parsed and checked like a given value.
    Value(&'static str),
}

/// One row of a command's flag table.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Flag {
    /// The flag as typed, e.g. `--lambda`.
    pub name: &'static str,
    /// Placeholder for the value in usage text, e.g. `FILE` or `N`.
    pub meta: &'static str,
    /// What the value is and how it is checked.
    pub kind: Kind,
    /// The value when the flag is not given.
    pub preset: Preset,
    /// One line for the usage text.
    pub help: &'static str,
}

impl Flag {
    /// A flag the command cannot run without.
    pub const fn required(
        name: &'static str,
        meta: &'static str,
        kind: Kind,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            meta,
            kind,
            preset: Preset::Required,
            help,
        }
    }

    /// A flag with no value unless given.
    pub const fn optional(
        name: &'static str,
        meta: &'static str,
        kind: Kind,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            meta,
            kind,
            preset: Preset::Absent,
            help,
        }
    }

    /// A flag worth `default` unless given.
    pub const fn defaulted(
        name: &'static str,
        meta: &'static str,
        kind: Kind,
        default: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            meta,
            kind,
            preset: Preset::Value(default),
            help,
        }
    }

    /// A switch, off unless given.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            meta: "",
            kind: Kind::Switch,
            preset: Preset::Absent,
            help,
        }
    }

    /// The value the flag has when not given (`Absent` for none).
    fn preset_value(&self) -> Value {
        match (self.preset, self.kind) {
            (Preset::Value(text), kind) => kind
                .parse(self.name, text)
                .expect("a preset passes its own check"),
            (_, Kind::Switch) => Value::Switch(false),
            _ => Value::Absent,
        }
    }

    /// `--name META` as usage text shows it.
    pub fn usage_word(&self) -> String {
        match self.kind {
            Kind::Switch => self.name.to_string(),
            Kind::Choice(words) => format!("{} {}", self.name, words.join("|")),
            _ => format!("{} {}", self.name, self.meta),
        }
    }
}

/// A checked flag value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Not given and without a preset.
    Absent,
    /// A switch, on or off.
    Switch(bool),
    /// A path or free text.
    Text(String),
    /// A float.
    Float(f64),
    /// A count or seed.
    Int(u64),
    /// The index of the chosen word.
    Choice(usize),
}

/// One flag of a parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Arg {
    /// The flag's name, for error messages.
    pub name: &'static str,
    /// Index in argv of the flag's last occurrence; `None` when not given.
    pub at: Option<usize>,
    /// The value text as given, if any.
    pub raw: Option<String>,
    /// The checked value: the given one, else the preset's.
    pub value: Value,
}

// Typed reads of an `Arg`. The plain forms are for required and defaulted
// flags and panic on a kind the table did not declare; the `opt_` forms
// read `None` for an absent value.
#[allow(missing_docs)]
impl Arg {
    pub fn on(&self) -> bool {
        self.value == Value::Switch(true)
    }
    pub fn opt_text(&self) -> Option<String> {
        match &self.value {
            Value::Text(s) => Some(s.clone()),
            _ => None,
        }
    }
    pub fn opt_path(&self) -> Option<PathBuf> {
        self.opt_text().map(PathBuf::from)
    }
    pub fn opt_float(&self) -> Option<f64> {
        match self.value {
            Value::Float(x) => Some(x),
            _ => None,
        }
    }
    pub fn opt_int(&self) -> Option<u64> {
        match self.value {
            Value::Int(n) => Some(n),
            _ => None,
        }
    }
    pub fn text(&self) -> String {
        self.opt_text()
            .unwrap_or_else(|| panic!("{} has no text", self.name))
    }
    pub fn path(&self) -> PathBuf {
        PathBuf::from(self.text())
    }
    pub fn float(&self) -> f64 {
        self.opt_float()
            .unwrap_or_else(|| panic!("{} has no float", self.name))
    }
    pub fn int(&self) -> u64 {
        self.opt_int()
            .unwrap_or_else(|| panic!("{} has no integer", self.name))
    }
    pub fn count(&self) -> usize {
        usize::try_from(self.int()).expect("a count's kind caps it at usize::MAX")
    }
    pub fn choice(&self) -> usize {
        match self.value {
            Value::Choice(i) => i,
            _ => panic!("{} has no choice", self.name),
        }
    }
}

/// Parses `argv` against `table`, one [`Arg`] per row in row order. Fails
/// naming the first argument the table does not list, a valued flag given
/// last without its value, a value that fails its kind's check, or a
/// missing required flag. A flag given twice keeps its last value.
pub fn parse(cmd: &str, table: &[Flag], argv: &[String]) -> Result<Vec<Arg>, String> {
    let mut given: Vec<(Option<usize>, Option<&String>)> = vec![(None, None); table.len()];
    let mut i = 0;
    while i < argv.len() {
        let (at, a) = (i, &argv[i]);
        let row = table
            .iter()
            .position(|f| f.name == a)
            .ok_or_else(|| format!("{cmd} does not accept {a:?}"))?;
        let raw = if table[row].kind == Kind::Switch {
            None
        } else {
            i += 1;
            Some(argv.get(i).ok_or_else(|| format!("{a} requires a value"))?)
        };
        given[row] = (Some(at), raw);
        i += 1;
    }
    let arg = |(f, (at, raw)): (&Flag, (Option<usize>, Option<&String>))| {
        let value = match (at, raw) {
            (Some(_), Some(v)) => f.kind.parse(f.name, v)?,
            (Some(_), None) => Value::Switch(true),
            (None, _) if f.preset == Preset::Required => {
                return Err(format!("missing required {}", f.name))
            }
            (None, _) => f.preset_value(),
        };
        Ok(Arg {
            name: f.name,
            at,
            raw: raw.cloned(),
            value,
        })
    };
    table.iter().zip(given).map(arg).collect()
}

/// [`parse`] for a table of known length, so a command can destructure
/// its flags by row.
pub fn parse_all<const N: usize>(
    cmd: &str,
    table: &[Flag; N],
    argv: &[String],
) -> Result<[Arg; N], String> {
    Ok(parse(cmd, table, argv)?
        .try_into()
        .unwrap_or_else(|_| unreachable!("one Arg per row")))
}

/// The argv that [`parse`] turns back into `values` (one per row of
/// `table`): each flag whose value differs from its preset.
pub fn render(table: &[Flag], values: &[Value]) -> Vec<String> {
    let mut argv = Vec::new();
    for (f, v) in table.iter().zip(values) {
        if *v == f.preset_value() || *v == Value::Absent {
            continue;
        }
        argv.push(f.name.to_string());
        match (v, f.kind) {
            (Value::Switch(_), _) => continue,
            (Value::Text(s), _) => argv.push(s.clone()),
            (Value::Float(x), _) => argv.push(x.to_string()),
            (Value::Int(n), _) => argv.push(n.to_string()),
            (Value::Choice(i), Kind::Choice(words)) => argv.push(words[*i].to_string()),
            _ => panic!("{} cannot hold {v:?}", f.name),
        }
    }
    argv
}

/// The synopsis of `command` (e.g. `clapf fit`): every flag of `table` in
/// row order, optional ones in brackets, wrapped at 78 columns under the
/// first flag.
pub fn synopsis(command: &str, table: &[Flag]) -> String {
    let indent = command.len() + 2;
    let mut out = format!("  {command}");
    let mut line = indent;
    for f in table {
        let word = match f.preset {
            Preset::Required => f.usage_word(),
            _ => format!("[{}]", f.usage_word()),
        };
        if line > indent && line + 1 + word.len() > 78 {
            out += &format!("\n{:indent$}", "");
            line = indent;
        }
        out += &format!(" {word}");
        line += 1 + word.len();
    }
    out + "\n"
}

/// One line per flag of `table`: its usage word, help line and default.
/// A word wider than 24 columns puts its help on the next line.
pub fn describe(table: &[Flag]) -> String {
    let words: Vec<String> = table.iter().map(Flag::usage_word).collect();
    let width = words
        .iter()
        .map(String::len)
        .filter(|&n| n <= 24)
        .max()
        .unwrap_or(0);
    let mut out = String::new();
    for (f, word) in table.iter().zip(&words) {
        let gap = if word.len() > width {
            format!("\n      {:width$}", "")
        } else {
            String::new()
        };
        let default = match f.preset {
            Preset::Value(d) => format!(" (default {d})"),
            _ => String::new(),
        };
        out += &format!("      {word:width$}{gap}  {}{default}\n", f.help);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: [Flag; 6] = [
        Flag::required("--data", "FILE", Kind::Path, "input"),
        Flag::defaulted(
            "--mode",
            "",
            Kind::Choice(&["fast", "slow"]),
            "fast",
            "pace",
        ),
        Flag::defaulted(
            "--rate",
            "F",
            Kind::Float(Bound::Included(0.0), Bound::Excluded(1.0)),
            "0.5",
            "rate",
        ),
        Flag::defaulted("--n", "N", Kind::COUNT_OR_ONE, "3", "count"),
        Flag::optional("--seed", "N", Kind::Seed, "seed"),
        Flag::switch("--loud", "talk"),
    ];

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn presets_fill_what_is_not_given_and_the_last_value_wins() {
        let [data, mode, rate, n, seed, loud] = parse_all(
            "t",
            &TABLE,
            &args(&["--data", "a", "--n", "0", "--data", "b"]),
        )
        .unwrap();
        assert_eq!((data.path(), data.at), (PathBuf::from("b"), Some(4)));
        assert_eq!((mode.choice(), rate.float(), n.int()), (0, 0.5, 1));
        assert_eq!((seed.opt_int(), loud.on(), loud.at), (None, false, None));
        assert_eq!(n.raw.as_deref(), Some("0"));
    }

    #[test]
    fn every_failure_names_its_flag_or_argument() {
        for (argv, named) in [
            (&["--rate", "0.1"][..], "missing required --data"),
            (&["--data"], "--data requires a value"),
            (&["--data", "x", "--bogus"], "\"--bogus\""),
            (
                &["--data", "x", "--mode", "medium"],
                "unknown mode \"medium\" (expected fast | slow)",
            ),
            (
                &["--data", "x", "--rate", "1"],
                "--rate must be in [0, 1), got 1",
            ),
            (&["--data", "x", "--rate", "nan"], "--rate must be in"),
            (
                &["--data", "x", "--n", "-1"],
                "--n expects a non-negative integer, got \"-1\"",
            ),
            (
                &["--data", "x", "--seed", "2.5"],
                "--seed expects a non-negative integer",
            ),
        ] {
            let err = parse("t", &TABLE, &args(argv)).unwrap_err();
            assert!(err.contains(named), "{argv:?}: {err}");
        }
    }

    #[test]
    fn render_round_trips_and_omits_presets() {
        let argv = args(&[
            "--data", "d", "--mode", "slow", "--rate", "0.25", "--seed", "9", "--loud",
        ]);
        let values: Vec<Value> = parse("t", &TABLE, &argv)
            .unwrap()
            .into_iter()
            .map(|a| a.value)
            .collect();
        assert_eq!(render(&TABLE, &values), argv);
    }

    #[test]
    fn synopsis_brackets_optional_flags_and_wraps() {
        let s = synopsis("tool run", &TABLE);
        assert_eq!(
            s,
            "  tool run --data FILE [--mode fast|slow] [--rate F] [--n N] [--seed N]\n           [--loud]\n"
        );
        assert!(describe(&TABLE).contains("--rate F          rate (default 0.5)"));
    }
}
