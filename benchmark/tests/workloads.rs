//! The benchmark's inputs are what its documentation says they are.

use ildp_benchmark::bench::{END_TO_END, PER_LAYER};
use ildp_benchmark::gen;
use ildp_benchmark::oracle::reference;
use ildp_benchmark::workload::{self, Kind, Sizes};
use ildp_core::{NullSink, Vm, VmExit};

fn image(p: &alpha_isa::Program) -> (Vec<u32>, Vec<Vec<u8>>) {
    let data = p.data_segments().iter().map(|d| d.bytes.clone()).collect();
    (p.code().to_vec(), data)
}

#[test]
fn generator_is_a_pure_function_of_the_seed() {
    for i in [0, 7, 23] {
        assert_eq!(image(&gen::program(5, i)), image(&gen::program(5, i)));
        assert_ne!(image(&gen::program(5, i)), image(&gen::program(6, i)));
    }
    assert_ne!(image(&gen::program(5, 0)), image(&gen::program(5, 1)));
}

#[test]
fn every_generated_program_halts_under_the_reference() {
    for seed in [1, 2] {
        for p in gen::programs(seed, Sizes::FULL.generated) {
            let e = reference(&p, gen::BUDGET).expect("halts cleanly");
            assert!(
                (700_000..1_100_000).contains(&e.retired),
                "{} instructions",
                e.retired
            );
        }
    }
}

#[test]
fn cold_programs_translate_hundreds_of_fragments_and_no_regions() {
    for i in 0..2 {
        let p = gen::program(3, i);
        let expected = reference(&p, gen::BUDGET).expect("halts");
        let mut vm = Vm::new(workload::vm_config(ildp_verifier::install_validator), &p);
        let exit = vm.run(gen::BUDGET, &mut NullSink);
        assert_eq!(exit, VmExit::Halted);
        ildp_benchmark::oracle::check(&exit, &vm, &expected).expect("matches the reference");
        let s = vm.stats();
        assert!(s.fragments >= 250, "only {} fragments", s.fragments);
        assert_eq!(s.regions_formed, 0);
        assert_eq!(s.verify_rejected, 0);
    }
}

#[test]
fn suite_programs_retire_about_eight_million_instructions() {
    for kind in [Kind::Loops, Kind::Calls] {
        for (name, program, budget) in workload::programs(kind, 1, Sizes::FULL) {
            let e = reference(&program, budget).expect("halts");
            assert!(
                (7_200_000..=8_800_000).contains(&e.retired),
                "{name}: {} instructions",
                e.retired
            );
        }
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = json.matches("\"name\":").count();
    let workloads = Kind::ALL.len();
    assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
    for kind in Kind::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
