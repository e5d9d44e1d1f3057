//! Translation-overhead cost model (paper §4.2).
//!
//! The paper measures its DBT at an average of **1,125 Alpha instructions
//! executed per translated Alpha instruction** (Table 2, last column) —
//! about a quarter of DAISY's 4,000+ — and notes that roughly 20% of that
//! is spent copying translated-instruction structures into the translation
//! cache field by field.
//!
//! We reproduce the *accounting*: each translation phase is charged a
//! per-source-instruction or per-emitted-instruction cost, calibrated so a
//! typical superblock lands near the paper's average, with variance across
//! benchmarks arising (as in the paper) from each benchmark's emitted/
//! source expansion ratio and fragment sizes.

use ildp_isa::IsaForm;

/// Per-phase instruction cost constants.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Dependence/usage identification + classification, per source
    /// instruction.
    pub classify_per_src: u64,
    /// Strand formation + accumulator assignment, per source instruction.
    pub strands_per_src: u64,
    /// Code emission, per emitted I-ISA instruction.
    pub emit_per_inst: u64,
    /// Translation-cache installation and chaining/patching, per fragment.
    pub install_per_fragment: u64,
    /// The fraction (in percent) of the subtotal spent copying high-level
    /// structures into the translation cache (paper: ~20%).
    pub struct_copy_pct: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            classify_per_src: 340,
            strands_per_src: 180,
            emit_per_inst: 230,
            install_per_fragment: 900,
            struct_copy_pct: 25, // 25% of subtotal == 20% of the total
        }
    }
}

impl CostModel {
    /// DBT instructions charged for translating one superblock of
    /// `src_insts` source instructions into `emitted_insts` I-ISA
    /// instructions of `form`. The straightened form runs no
    /// classification and forms no strands, so it is charged emission,
    /// installation and the structure-copy share only.
    pub fn fragment_cost(&self, form: IsaForm, src_insts: u64, emitted_insts: u64) -> u64 {
        let analysed = match form {
            IsaForm::Straightened => 0,
            IsaForm::Basic | IsaForm::Modified => src_insts,
        };
        let subtotal = self.classify_per_src * analysed
            + self.strands_per_src * analysed
            + self.emit_per_inst * emitted_insts
            + self.install_per_fragment;
        subtotal + subtotal * self.struct_copy_pct / 100
    }

    /// Instructions charged per interpreted instruction (paper §4.1:
    /// "each interpretation takes about 20 instructions").
    pub fn interp_cost_per_inst(&self) -> u64 {
        20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_fragment_lands_near_paper_average() {
        let m = CostModel::default();
        // A typical hot superblock: ~25 source instructions expanding ~1.4x.
        let cost = m.fragment_cost(IsaForm::Modified, 25, 35);
        let per_src = cost as f64 / 25.0;
        assert!(
            (800.0..1500.0).contains(&per_src),
            "per-source cost {per_src} out of the paper's range"
        );
    }

    #[test]
    fn struct_copy_share_is_about_twenty_percent_of_total() {
        let m = CostModel::default();
        let total = m.fragment_cost(IsaForm::Modified, 100, 140) as f64;
        let without = CostModel {
            struct_copy_pct: 0,
            ..m
        }
        .fragment_cost(IsaForm::Modified, 100, 140) as f64;
        let share = (total - without) / total;
        assert!((0.15..0.25).contains(&share), "copy share {share}");
    }

    #[test]
    fn cost_scales_with_expansion() {
        let m = CostModel::default();
        assert!(
            m.fragment_cost(IsaForm::Modified, 50, 100)
                > m.fragment_cost(IsaForm::Modified, 50, 60)
        );
    }

    #[test]
    fn straightened_form_is_charged_only_what_it_runs() {
        let m = CostModel::default();
        let emit_install = m.emit_per_inst * 30 + m.install_per_fragment;
        assert_eq!(
            m.fragment_cost(IsaForm::Straightened, 25, 30),
            emit_install + emit_install * m.struct_copy_pct / 100
        );
        assert_eq!(
            m.fragment_cost(IsaForm::Basic, 25, 30),
            m.fragment_cost(IsaForm::Modified, 25, 30)
        );
        assert!(
            m.fragment_cost(IsaForm::Straightened, 25, 30)
                < m.fragment_cost(IsaForm::Modified, 25, 30)
        );
    }
}
