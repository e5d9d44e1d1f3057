//! The lint family behind the `lint` binary: six gates over the
//! workload suite, each a plain function from [`LintArgs`] to a
//! [`LintReport`], listed in [`FAMILIES`].
//!
//! | family   | gate                                                         |
//! |----------|--------------------------------------------------------------|
//! | `verify` | every fragment passes the verifier and whole-cache dataflow; |
//! |          | F01–F06 seeds are detected                                   |
//! | `chaos`  | cache fault injection is detected, healed, reproducible      |
//! | `replay` | snapshot/restore, seed reruns and triage bundles roundtrip   |
//! | `store`  | persistent-store corruption only ever degrades to a miss     |
//! | `pool`   | translation-pool faults degrade, never diverge or wedge      |
//! | `region` | re-formed regions match the interpreter; region seeds caught |
//!
//! Matrix families sweep [`cells`]: workload × [`ALL_FORMS`] ×
//! [`ALL_CHAINS`]. A cell is named by one spec grammar,
//! `workload:form:chain[:seed][:dDELAY]` ([`CellSpec`]); `--repro <spec>`
//! re-runs one cell alone. `store` names injections `index[:kind]`
//! instead.
//!
//! On failure the `lint` binary prints the report in one JSON schema, then a
//! `rerun:` line per failure:
//!
//! ```json
//! {
//!   "family": "<verify|chaos|replay|store|pool|region>",
//!   "scale": 10,
//!   "<extra>": 123,            // family-specific counters, 0+ of them
//!   "failures": [
//!     {"cell": "<cell spec or gate name>",
//!      "details": ["<human-readable finding>", ...]}
//!   ]
//! }
//! ```

use crate::json_escape;
use ildp_core::{ChainPolicy, InstallValidator, OnViolation, Translator, VmConfig};
use ildp_isa::IsaForm;
use ildp_verifier::Violation;
use spec_workloads::{by_name, suite, Workload, NAMES};
use std::fmt;

mod chaos;
mod pool;
mod region;
mod replay;
mod store;
mod verify;

/// One lint family: its CLI name, whether it takes `--seed`, and its
/// entry point. `Err` from `run` is a usage error (bad `--repro`).
pub struct Family {
    /// CLI name (`lint <name>`).
    pub name: &'static str,
    /// Whether `--seed` changes what the family runs.
    pub seeded: bool,
    /// Runs the family.
    pub run: fn(&LintArgs) -> Result<LintReport, String>,
}

/// Every lint family, in the order `lint` runs them.
pub const FAMILIES: [Family; 6] = [
    Family {
        name: "verify",
        seeded: false,
        run: verify::run,
    },
    Family {
        name: "chaos",
        seeded: true,
        run: chaos::run,
    },
    Family {
        name: "replay",
        seeded: false,
        run: replay::run,
    },
    Family {
        name: "store",
        seeded: true,
        run: store::run,
    },
    Family {
        name: "pool",
        seeded: true,
        run: pool::run,
    },
    Family {
        name: "region",
        seeded: false,
        run: region::run,
    },
];

/// What a family runs: the workload scale, an optional sweep seed, and
/// an optional single cell to re-run.
#[derive(Clone, Debug)]
pub struct LintArgs {
    /// Workload scale (`ILDP_SCALE`).
    pub scale: u32,
    /// `--seed`: replaces the family's default seed schedule.
    pub seed: Option<u64>,
    /// `--repro`: the one cell (or store injection) to re-run.
    pub repro: Option<String>,
}

/// One matrix cell: the workload, its form and chain policy, and its
/// `workload:form:chain` spec.
pub type Cell = (Workload, IsaForm, ChainPolicy, String);

impl LintArgs {
    /// Parses `--repro` as a cell spec of one shape: `seeded` families
    /// need the `:seed` part, and only `delayed` ones accept `:dDELAY`.
    pub(crate) fn repro_cell(
        &self,
        seeded: bool,
        delayed: bool,
    ) -> Result<Option<CellSpec>, String> {
        let Some(s) = &self.repro else {
            return Ok(None);
        };
        let spec = parse_cell_spec(s)?;
        if spec.seed.is_some() != seeded || (spec.delay.is_some() && !delayed) {
            return Err(format!(
                "bad cell spec {s:?}: want workload:form:chain{}{}",
                if seeded { ":seed" } else { "" },
                if delayed { "[:dDELAY]" } else { "" }
            ));
        }
        Ok(Some(spec))
    }

    /// The cells a seedless matrix family runs: the `--repro` cell, or
    /// every cell of the matrix.
    pub(crate) fn matrix(&self) -> Result<Box<dyn Iterator<Item = Cell>>, String> {
        Ok(match self.repro_cell(false, false)? {
            Some(c) => Box::new(std::iter::once((
                c.workload(self.scale),
                c.form,
                c.chain,
                c.to_string(),
            ))),
            None => Box::new(cells(self.scale)),
        })
    }
}

/// One failing unit in a lint report.
#[derive(Clone, Debug)]
pub struct LintFailure {
    /// Cell spec, store injection, or gate name.
    pub cell: String,
    /// Whether `--repro <cell>` re-runs this failure alone; gate
    /// failures (coverage, floors, seeded corpora) need the whole family.
    pub repro: bool,
    /// Human-readable findings.
    pub details: Vec<String>,
}

/// What a family found: its counters and its failures.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// Family-specific counters, emitted as extra top-level JSON keys in
    /// order (e.g. chaos's `injections`/`undetected`).
    pub extras: Vec<(&'static str, u64)>,
    /// The failures; empty means the family passed.
    pub failures: Vec<LintFailure>,
}

impl LintReport {
    /// Appends a family-specific counter (top-level JSON key).
    pub fn extra(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.extras.push((key, value));
        self
    }

    /// Records a failing cell that `--repro <cell>` re-runs.
    pub fn fail(&mut self, cell: impl Into<String>, details: Vec<String>) {
        self.push(cell.into(), true, details);
    }

    /// Records a failing whole-family gate (no `--repro` form).
    pub fn fail_gate(&mut self, gate: impl Into<String>, details: Vec<String>) {
        self.push(gate.into(), false, details);
    }

    fn push(&mut self, cell: String, repro: bool, details: Vec<String>) {
        self.failures.push(LintFailure {
            cell,
            repro,
            details,
        });
    }

    /// Whether the family passed (no failures recorded).
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the shared JSON schema (single line).
    pub fn to_json(&self, family: &str, scale: u32) -> String {
        let mut out = format!("{{\"family\":\"{family}\",\"scale\":{scale}");
        for (key, value) in &self.extras {
            out.push_str(&format!(",\"{key}\":{value}"));
        }
        out.push_str(",\"failures\":[");
        for (k, f) in self.failures.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let details: Vec<String> = f
                .details
                .iter()
                .map(|d| format!("\"{}\"", json_escape(d)))
                .collect();
            out.push_str(&format!(
                "{{\"cell\":\"{}\",\"details\":[{}]}}",
                json_escape(&f.cell),
                details.join(",")
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Runs a seeded-miscompile corpus through its detector. Each item is a
/// seed's `(name, rule, violations the detector reported)`; a seed is
/// detected when its own rule fired. Prints one `seed …` line per seed,
/// files every undetected one, and returns `(seeds, undetected)`.
pub(crate) fn check_seeds(
    report: &mut LintReport,
    seeds: impl IntoIterator<Item = (&'static str, &'static str, Vec<Violation>)>,
) -> (u64, u64) {
    let (mut total, mut undetected) = (0u64, 0u64);
    for (name, rule, vs) in seeds {
        total += 1;
        let caught = vs.iter().any(|v| v.rule == rule);
        println!(
            "seed {name:<55} [{rule}] {}",
            if caught { "detected" } else { "UNDETECTED" }
        );
        if !caught {
            undetected += 1;
            report.fail_gate(
                format!("seed:{rule}:{name}"),
                vec![format!(
                    "seeded {rule} miscompile not detected; rules that fired: {:?}",
                    vs.iter().map(|v| v.rule).collect::<Vec<_>>()
                )],
            );
        }
    }
    (total, undetected)
}

/// Short name of an ISA form, as used in cell specs.
pub fn form_name(form: IsaForm) -> &'static str {
    match form {
        IsaForm::Basic => "basic",
        IsaForm::Modified => "modified",
        IsaForm::Straightened => "straightened",
    }
}

/// Formats a `workload:form:chain` cell spec.
pub fn cell_spec(workload: &str, form: IsaForm, chain: ChainPolicy) -> String {
    format!("{workload}:{}:{}", form_name(form), chain.label())
}

/// A parsed `workload:form:chain[:seed][:dDELAY]` cell spec: the one
/// grammar every lint family, `triage --chaos` and the failure reports
/// share.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CellSpec {
    /// Workload name, one of [`spec_workloads::NAMES`].
    pub workload: &'static str,
    /// I-ISA form.
    pub form: IsaForm,
    /// Chain policy.
    pub chain: ChainPolicy,
    /// Cell seed (chaos, pool).
    pub seed: Option<u64>,
    /// Install delay in retired V-ISA instructions
    /// ([`ildp_core::VmConfig::install_delay`]); marks a chaos
    /// delayed-install cell, which runs the pool route.
    pub delay: Option<u64>,
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&cell_spec(self.workload, self.form, self.chain))?;
        if let Some(s) = self.seed {
            write!(f, ":{s}")?;
        }
        if let Some(d) = self.delay {
            write!(f, ":d{d}")?;
        }
        Ok(())
    }
}

impl CellSpec {
    /// Builds the workload this cell runs at the given scale.
    pub fn workload(&self, scale: u32) -> Workload {
        by_name(self.workload, scale).expect("validated at parse")
    }
}

/// Parses the `workload:form:chain[:seed][:dDELAY]` shape printed by
/// [`CellSpec`]'s `Display`.
pub fn parse_cell_spec(s: &str) -> Result<CellSpec, String> {
    let bad = || format!("bad cell spec {s:?}: want workload:form:chain[:seed][:dDELAY]");
    let mut parts: Vec<&str> = s.split(':').collect();
    if parts.len() < 3 {
        return Err(bad());
    }
    let delay = match parts.last() {
        Some(d) if parts.len() > 3 && d.starts_with('d') => {
            let n = d[1..]
                .parse::<u64>()
                .map_err(|_| format!("bad delay {d:?}: want dNNN"))?;
            parts.pop();
            Some(n)
        }
        _ => None,
    };
    let seed = match parts[3..] {
        [] => None,
        [seed] => Some(
            seed.parse::<u64>()
                .map_err(|_| format!("bad seed {seed:?}"))?,
        ),
        _ => return Err(bad()),
    };
    let workload = *NAMES
        .iter()
        .find(|n| **n == parts[0])
        .ok_or_else(|| format!("unknown workload {:?}", parts[0]))?;
    let form = match parts[1] {
        "basic" => IsaForm::Basic,
        "modified" => IsaForm::Modified,
        other => return Err(format!("unknown ISA form {other:?}")),
    };
    let chain = match parts[2] {
        "no_pred" => ChainPolicy::NoPred,
        "sw_pred.no_ras" => ChainPolicy::SwPred,
        "sw_pred.ras" => ChainPolicy::SwPredDualRas,
        other => return Err(format!("unknown chain policy {other:?}")),
    };
    Ok(CellSpec {
        workload,
        form,
        chain,
        seed,
        delay,
    })
}

/// The configuration an auditing cell runs under: `form` and `chain`
/// with `validator` installed under [`OnViolation::Record`], so every
/// finding lands in [`ildp_core::Vm::violations`] without changing the
/// run. Translation stays synchronous so every count reproduces run to
/// run.
pub(crate) fn recording_config(
    form: IsaForm,
    chain: ChainPolicy,
    validator: InstallValidator,
) -> VmConfig {
    VmConfig {
        translator: Translator {
            form,
            chain,
            ..Translator::default()
        },
        validator: Some(validator),
        on_violation: OnViolation::Record,
        async_translate: false,
        ..VmConfig::default()
    }
}

/// Every ISA form, in matrix order.
pub const ALL_FORMS: [IsaForm; 2] = [IsaForm::Basic, IsaForm::Modified];

/// Every chain policy, in matrix order.
pub const ALL_CHAINS: [ChainPolicy; 3] = [
    ChainPolicy::NoPred,
    ChainPolicy::SwPred,
    ChainPolicy::SwPredDualRas,
];

/// The matrix at `scale`: every suite workload × [`ALL_FORMS`] ×
/// [`ALL_CHAINS`], workload-major, each cell with its spec.
pub fn cells(scale: u32) -> impl Iterator<Item = Cell> {
    suite(scale).into_iter().flat_map(|w| {
        ALL_FORMS.into_iter().flat_map(move |form| {
            let w = w.clone();
            ALL_CHAINS
                .into_iter()
                .map(move |chain| (w.clone(), form, chain, cell_spec(w.name, form, chain)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_schema() {
        let mut rep = LintReport::default();
        rep.extra("injections", 12);
        assert!(rep.is_clean());
        rep.fail("wl:basic:no_pred", vec!["bad \"thing\"".to_string()]);
        let json = rep.to_json("verify", 7);
        assert_eq!(
            json,
            "{\"family\":\"verify\",\"scale\":7,\"injections\":12,\
             \"failures\":[{\"cell\":\"wl:basic:no_pred\",\
             \"details\":[\"bad \\\"thing\\\"\"]}]}"
        );
    }

    #[test]
    fn cell_spec_round_trips() {
        for form in ALL_FORMS {
            for chain in ALL_CHAINS {
                for (seed, delay) in [(None, None), (Some(7001), None), (Some(7001), Some(64))] {
                    let spec = CellSpec {
                        workload: NAMES[0],
                        form,
                        chain,
                        seed,
                        delay,
                    };
                    assert_eq!(parse_cell_spec(&spec.to_string()), Ok(spec));
                }
            }
        }
        let spec = parse_cell_spec("gzip:modified:sw_pred.ras:7001:d64").unwrap();
        assert_eq!(spec.to_string(), "gzip:modified:sw_pred.ras:7001:d64");
        assert_eq!(spec.seed, Some(7001));
        assert_eq!(spec.delay, Some(64));
    }

    #[test]
    fn bad_cell_specs_are_rejected() {
        assert!(parse_cell_spec("nope").is_err());
        assert!(parse_cell_spec("nope:basic:no_pred").is_err());
        assert!(parse_cell_spec(&format!("{}:weird:no_pred", NAMES[0])).is_err());
        assert!(parse_cell_spec(&format!("{}:basic:weird", NAMES[0])).is_err());
        assert!(parse_cell_spec("gzip:modified:sw_pred.ras:1:x64").is_err());
        assert!(parse_cell_spec("gzip:modified:sw_pred.ras:1:2").is_err());
    }

    #[test]
    fn cells_walk_the_matrix_workload_major() {
        let all: Vec<Cell> = cells(1).collect();
        assert_eq!(all.len(), NAMES.len() * ALL_FORMS.len() * ALL_CHAINS.len());
        assert_eq!(
            all[0].3,
            cell_spec(NAMES[0], IsaForm::Basic, ChainPolicy::NoPred)
        );
        assert_eq!(
            all[5].3,
            cell_spec(NAMES[0], IsaForm::Modified, ChainPolicy::SwPredDualRas)
        );
        assert_eq!(all[6].0.name, NAMES[1]);
    }
}
