//! Pins the serialized `TskFis` format. cqm-persist checkpoints and served
//! models embed this JSON, so a model written by an older build must load,
//! re-serialize to the same bytes and answer with the same bits.

use cqm_fuzzy::TskFis;

/// Two Gaussian rules over two inputs with linear consequents, as
/// `serde_json::to_string` writes them.
const FIS_JSON: &str = concat!(
    r#"{"rules":[{"antecedents":[{"Gaussian":{"mu":0.25,"sigma":0.3}},"#,
    r#"{"Gaussian":{"mu":-1.5,"sigma":0.125}}],"consequent":[1.5,-0.75,0.1]},"#,
    r#"{"antecedents":[{"Gaussian":{"mu":1.0,"sigma":0.45}},"#,
    r#"{"Gaussian":{"mu":-1.0,"sigma":0.6}}],"consequent":[-2.0,0.3,0.3333333333333333]}]}"#,
);

/// Inputs and the output bits the format's writer produced for them.
const ANSWERS: [([f64; 2], u64); 4] = [
    ([0.0, -1.25], 0x3fe1_ba90_251a_1602),
    ([0.5, -1.0], 0xbfee_e5b2_6f57_c142),
    ([1.0, -1.5], 0xbffd_54fe_78a7_96a2),
    ([0.7, -0.9], 0xbff5_62ef_0dac_6afb),
];

#[test]
fn tsk_fis_json_round_trips_byte_for_byte() {
    let fis: TskFis = serde_json::from_str(FIS_JSON).unwrap();
    assert_eq!(fis.rule_count(), 2);
    assert_eq!(fis.input_dim(), 2);
    assert_eq!(serde_json::to_string(&fis).unwrap(), FIS_JSON);
}

#[test]
fn tsk_fis_json_evaluates_bit_identically() {
    let fis: TskFis = serde_json::from_str(FIS_JSON).unwrap();
    let kernel = fis.kernel();
    let mut scratch = kernel.scratch();
    for (v, bits) in ANSWERS {
        assert_eq!(fis.eval(&v).unwrap().to_bits(), bits, "eval at {v:?}");
        let k = kernel.eval_into(&v, &mut scratch).unwrap();
        assert_eq!(k.to_bits(), bits, "kernel at {v:?}");
    }
}
