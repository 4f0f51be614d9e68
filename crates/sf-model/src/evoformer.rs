//! The Evoformer block: the nine sub-modules of the paper's Figure 2,
//! written once over Dynamic Axial Parallelism.
//!
//! Shapes throughout: the MSA representation `m` is `[S, R, c_m]` (sequences
//! × residues × channels) and the pair representation `z` is `[R, R, c_z]`.
//!
//! The module order matches AlphaFold Algorithm 6:
//! 1. MSA row-wise gated self-attention **with pair bias**
//! 2. MSA column-wise gated self-attention
//! 3. MSA transition
//! 4. Outer product mean (MSA → pair communication)
//! 5. Triangle multiplicative update, outgoing edges
//! 6. Triangle multiplicative update, incoming edges
//! 7. Triangle self-attention around the starting node
//! 8. Triangle self-attention around the ending node
//! 9. Pair transition
//!
//! [`evoformer_block`] takes the DAP executor (ScaleFold §3.3): the four
//! axial attentions (modules 1, 2, 7, 8) run on activation shards, with
//! the sharded axis switched by one all-to-all. The unsharded block is the
//! same function at one rank (`&LocalAxial(1)`), where every collective is
//! the identity or a plain transpose and adds no communication. The public
//! per-module functions ([`msa_row_attention_with_pair_bias`],
//! [`msa_column_attention`], [`triangle_attention`], ...) are the block's
//! own module code at one rank, so timing them times what the block runs.
//!
//! Every sub-module is residual. The four projections before each attention
//! (Q, K, V, gate) are bundled through [`crate::linear::batched_apply`] —
//! the paper's "GEMM Batching" — and attention itself is the fused
//! pair-bias kernel from `sf-autograd`/`sf-tensor`.
//!
//! All of the block's heavy kernels (the bundled GEMMs, LayerNorm,
//! softmax, and fused attention) execute on the parallel CPU backend in
//! `sf_tensor::pool`; the thread count comes from `SF_THREADS` or
//! `sf_tensor::pool::set_num_threads`, and results are bit-identical at
//! every thread count, so Evoformer outputs do not depend on parallelism.

use crate::dap::{
    dap_all_gather, dap_all_gather_axis1, dap_axis_switch, dap_reshard_axis1, dap_scatter,
    AxialCollectives, LocalAxial,
};
use crate::linear::{batched_apply, layer_norm, name_seed, Linear};
use sf_autograd::{Graph, ParamStore, Result, Var};

/// Channel dimensions for one Evoformer block instance (the main stack, the
/// extra-MSA stack, and the template pair stack use different widths).
#[derive(Debug, Clone, Copy)]
pub struct BlockDims {
    /// MSA representation channels.
    pub c_m: usize,
    /// Pair representation channels.
    pub c_z: usize,
    /// MSA attention heads.
    pub msa_heads: usize,
    /// Pair attention heads.
    pub pair_heads: usize,
    /// Per-head width for MSA attention.
    pub c_hidden_msa: usize,
    /// Per-head width for pair attention.
    pub c_hidden_pair: usize,
    /// Triangle multiplicative hidden channels.
    pub c_hidden_mul: usize,
    /// Outer-product-mean hidden channels.
    pub c_opm: usize,
    /// Transition expansion factor.
    pub transition_factor: usize,
    /// Dropout probability on attention/triangle outputs (0 disables).
    pub dropout: f32,
    /// Use the fused attention-softmax-gate kernel (vs the composed op
    /// chain) in gated axis attention.
    pub fused: bool,
}

impl BlockDims {
    /// Dimensions of the main Evoformer stack for `cfg`.
    pub fn main(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_m,
            c_z: cfg.c_z,
            msa_heads: cfg.msa_heads,
            pair_heads: cfg.pair_heads,
            c_hidden_msa: cfg.c_hidden_msa,
            c_hidden_pair: cfg.c_hidden_pair,
            c_hidden_mul: cfg.c_hidden_mul,
            c_opm: cfg.c_opm,
            transition_factor: cfg.transition_factor,
            dropout: cfg.dropout,
            fused: cfg.fused_kernels,
        }
    }

    /// Dimensions of the extra-MSA stack (narrow MSA channels).
    pub fn extra(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_e,
            ..BlockDims::main(cfg)
        }
    }

    /// Dimensions of the template pair stack (pair-only, width `c_t`).
    pub fn template(cfg: &crate::ModelConfig) -> Self {
        BlockDims {
            c_m: cfg.c_t,
            c_z: cfg.c_t,
            ..BlockDims::main(cfg)
        }
    }
}

/// One Evoformer block under **Dynamic Axial Parallelism** (ScaleFold
/// §3.3, after FastFold) over `dap.ranks()` ranks. Returns the updated
/// `(m, z)`, replicated on every rank.
///
/// The four axial attentions run on activation shards. MSA row attention
/// runs on sequence shards `[S/k, R, c_m]`; one axis switch (the
/// executor's all-to-all) turns them into residue shards `[R/k, S, c_m]`
/// for column attention, and an all-gather rejoins them. The pair half
/// does the same with the starting- and ending-node triangle attentions.
/// The transitions, the outer product mean and the triangle
/// multiplications run replicated, as their cost does not grow with the
/// axial length being sharded here.
///
/// At `dap = &LocalAxial(1)` every scatter and gather is the identity and
/// every axis switch a plain transpose: that call *is* the unsharded
/// block. With dropout off the output is bitwise identical for every rank
/// count, because each sharded kernel (LayerNorm, the bundled QKV-gate
/// GEMM, attention) is row-independent and all data movement enters the
/// tape through the verified external concat. Under dropout each rank
/// salts its mask seed with its rank, so DAP-k is a different but equally
/// valid sample of the dropout noise.
///
/// `global_column` switches column attention to AlphaFold's *global*
/// (mean-query) form, the memory-cheap variant the extra-MSA stack needs
/// for its thousands of sequences. It keeps the row-major `[S, R/k, c_m]`
/// shards, so at one rank it transposes nothing. `ckpt` recomputes the transitions in
/// backward instead of keeping their hidden layers.
///
/// # Panics
///
/// Panics if the sequence or residue axis is not divisible by the rank
/// count.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops (a mismatch
/// indicates an inconsistent `dims` / input combination) and external
/// value mismatches from the collective executor.
#[allow(clippy::too_many_arguments)]
pub fn evoformer_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    ckpt: bool,
    global_column: bool,
    dap: &dyn AxialCollectives,
) -> Result<(Var, Var)> {
    let rows = msa_row_shards(g, store, dims, &format!("{prefix}.msa_row"), m, z, dap)?;
    let col_prefix = format!("{prefix}.msa_col");
    let m = msa_column_gathered(g, store, dims, &col_prefix, &rows, global_column, dap)?;
    let trans = if ckpt { transition_checkpointed } else { transition };
    let m = trans(g, store, dims.c_m, dims.transition_factor, &format!("{prefix}.msa_trans"), m)?;
    let z = outer_product_mean(g, store, dims, &format!("{prefix}.opm"), m, z)?;
    let z = pair_block(g, store, dims, prefix, z, ckpt, dap)?;
    Ok((m, z))
}

/// The block's pair half (modules 5–9). The template pair stack, which
/// has no MSA track, runs it alone at DAP-1.
///
/// # Panics
///
/// Panics if the residue axis is not divisible by the rank count.
///
/// # Errors
///
/// Propagates shape errors from the underlying tensor ops and external
/// value mismatches from the collective executor.
pub fn pair_block(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    ckpt: bool,
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_out"), z, true)?;
    let z = triangle_multiplication(g, store, dims, &format!("{prefix}.tri_mul_in"), z, false)?;
    let start_prefix = format!("{prefix}.tri_att_start");
    let residual = dap_scatter(g, z, dap.ranks())?;
    let starts = triangle_attention_shards(g, store, dims, &start_prefix, z, &residual)?;
    let z = triangle_end_gathered(g, store, dims, &format!("{prefix}.tri_att_end"), &starts, dap)?;
    let trans = if ckpt { transition_checkpointed } else { transition };
    trans(g, store, dims.c_z, dims.transition_factor, &format!("{prefix}.pair_trans"), z)
}

/// Module 1 on sequence shards: LayerNorm, gated attention along the
/// residue axis with the pair bias, dropout and the residual, rank by
/// rank. Returns the `[S/k, R, c_m]` shards.
fn msa_row_shards(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
    dap: &dyn AxialCollectives,
) -> Result<Vec<Var>> {
    // The pair bias indexes residues only, so every rank shares the one
    // computed from the replicated z.
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln_z"), dims.c_z, z)?;
    let bias = head_bias(g, store, &format!("{prefix}.pair_bias"), dims.c_z, dims.msa_heads, z_ln)?;
    // Parameter prefixes are identical across ranks: each rank binds the
    // same weights, and `grads_by_name` sums the per-rank weight
    // gradients — the reduction DAP performs in its gradient all-reduce.
    dap_scatter(g, m, dap.ranks())?
        .into_iter()
        .enumerate()
        .map(|(rank, sh)| {
            let m_ln = layer_norm(g, store, &format!("{prefix}.ln_m"), dims.c_m, sh)?;
            let att = gated_axis_attention(
                g,
                store,
                prefix,
                m_ln,
                Some(bias),
                dims.c_m,
                dims.msa_heads,
                dims.c_hidden_msa,
                dims.fused,
            )?;
            dropout_residual(g, dims, prefix, rank, sh, att)
        })
        .collect()
}

/// Module 2 on the sequence shards module 1 leaves: residue shards,
/// LayerNorm, column attention (full or global) along the sequence axis,
/// the residual, and one all-gather back to the replicated `[S, R, c_m]`.
///
/// Full attention attends along axis 1, so one axis switch gives it
/// transposed `[R/k, S, c_m]` shards. Its LayerNorm follows the switch, so
/// its parameter gradients reduce over `[R, S]`-ordered rows; normalising
/// before the switch would need a second all-to-all for the residual.
/// Global attention only pools the sequence axis, so it keeps the
/// row-major `[S, R/k, c_m]` shards: at one rank, where the extra-MSA
/// stack runs, it transposes nothing.
fn msa_column_gathered(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    rows: &[Var],
    global: bool,
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let cols = if global {
        dap_reshard_axis1(g, dap, rows)?
    } else {
        dap_axis_switch(g, dap, rows)?
    };
    let mut out = Vec::with_capacity(cols.len());
    for &sh in &cols {
        let ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_m, sh)?;
        let att = if global {
            global_column_attention(g, store, dims, prefix, ln)?
        } else {
            gated_axis_attention(
                g,
                store,
                prefix,
                ln,
                None,
                dims.c_m,
                dims.msa_heads,
                dims.c_hidden_msa,
                dims.fused,
            )?
        };
        // AlphaFold applies no dropout to column attention, full or global
        // (Algorithms 6 and 18).
        out.push(g.add(sh, att)?);
    }
    if global {
        return dap_all_gather_axis1(g, dap, &out);
    }
    let full = dap_all_gather(g, dap, &out)?; // [R, S, c_m]
    g.permute(full, &[1, 0, 2])
}

/// Module 8 on the shards module 7 leaves: one axis switch to the
/// transposed layout, an all-gather (the ending-node LayerNorm and bias
/// need the full transposed tensor), attention on shards, and a final
/// all-gather and transpose back to the replicated `[R, R, c_z]`.
fn triangle_end_gathered(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    starts: &[Var],
    dap: &dyn AxialCollectives,
) -> Result<Var> {
    let residual = dap_axis_switch(g, dap, starts)?; // [R/k, R, c_z], transposed
    let full = dap_all_gather(g, dap, &residual)?;
    let out = triangle_attention_shards(g, store, dims, prefix, full, &residual)?;
    let zt = dap_all_gather(g, dap, &out)?;
    g.permute(zt, &[1, 0, 2])
}

/// Module 7, starting-node triangle attention, of the replicated `full`
/// (`[R, R, c_z]`) on one row shard per entry of `residual`: LayerNorm
/// and the triangle bias `logits(i; j->k) += linear(z_ln[j,k])` over the
/// whole tensor, then each rank's attention, dropout and residual.
/// Returns the `[R/k, R, c_z]` shards. Module 8 is this on the transposed
/// tensor.
fn triangle_attention_shards(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    full: Var,
    residual: &[Var],
) -> Result<Vec<Var>> {
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_z, full)?;
    let bias = head_bias(g, store, &format!("{prefix}.tri_bias"), dims.c_z, dims.pair_heads, z_ln)?;
    dap_scatter(g, z_ln, residual.len())?
        .into_iter()
        .zip(residual)
        .enumerate()
        .map(|(rank, (x, &res))| {
            let att = gated_axis_attention(
                g,
                store,
                prefix,
                x,
                Some(bias),
                dims.c_z,
                dims.pair_heads,
                dims.c_hidden_pair,
                dims.fused,
            )?;
            dropout_residual(g, dims, prefix, rank, res, att)
        })
        .collect()
}

/// Per-head attention bias from a normalised pair tensor:
/// `[R, R, c_z]` → `[R, R, h]` → `[h, R, R]`.
fn head_bias(
    g: &mut Graph,
    store: &mut ParamStore,
    name: &str,
    c_z: usize,
    heads: usize,
    z_ln: Var,
) -> Result<Var> {
    let bias = Linear::no_bias(name, c_z, heads).apply(g, store, z_ln)?;
    g.permute(bias, &[2, 0, 1])
}

/// The four attention projections (Q, K, V, gate) of `x`, `c_in` →
/// `hd`, as one bundled GEMM — the paper's "GEMM Batching".
fn qkv_gate(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &str,
    x: Var,
    c_in: usize,
    hd: usize,
) -> Result<Vec<Var>> {
    let q_proj = Linear::no_bias(format!("{prefix}.q"), c_in, hd);
    let k_proj = Linear::no_bias(format!("{prefix}.k"), c_in, hd);
    let v_proj = Linear::no_bias(format!("{prefix}.v"), c_in, hd);
    let gate_proj = Linear::new(format!("{prefix}.gate"), c_in, hd);
    batched_apply(g, store, &[&q_proj, &k_proj, &v_proj, &gate_proj], x)
}

/// Shared gated-attention plumbing: projects `x` (`[B1, B2, c_in]`) to
/// per-head Q/K/V/gate, runs fused attention over the second axis with an
/// optional `[h, B2, B2]` bias, gates, and projects back to `c_in`.
#[allow(clippy::too_many_arguments)]
fn gated_axis_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    prefix: &str,
    x: Var,
    bias: Option<Var>,
    c_in: usize,
    heads: usize,
    c_hidden: usize,
    fused: bool,
) -> Result<Var> {
    let hd = heads * c_hidden;
    let outs = qkv_gate(g, store, prefix, x, c_in, hd)?;
    let (b1, b2) = {
        let d = g.value(x).dims();
        (d[0], d[1])
    };
    // [B1, B2, h·d] -> [B1, h, B2, d]
    let mut per_head = |t: Var| {
        let r = g.reshape(t, &[b1, b2, heads, c_hidden])?;
        g.permute(r, &[0, 2, 1, 3])
    };
    let (qh, kh, vh, gh) =
        (per_head(outs[0])?, per_head(outs[1])?, per_head(outs[2])?, per_head(outs[3])?);
    let scale = 1.0 / (c_hidden as f32).sqrt();
    let gated = if fused {
        // One kernel: scale + pair bias + online softmax + sigmoid gate,
        // with softmax-backward folded into the attention grad.
        g.attention_fused(qh, kh, vh, bias, None, Some(gh), scale)?
    } else {
        // Composed escape hatch (`--no-fused`): the seed-era op chain,
        // kept for A/B comparison and debugging.
        let att = g.attention(qh, kh, vh, bias, scale)?;
        let gsig = g.sigmoid(gh)?;
        g.mul(gsig, att)?
    };
    let back = g.permute(gated, &[0, 2, 1, 3])?;
    let mut flat_dims = g.value(x).dims().to_vec();
    flat_dims[2] = hd;
    let flat = g.reshape(back, &flat_dims)?;
    Linear::new(format!("{prefix}.out"), hd, c_in).apply(g, store, flat)
}

/// Global column attention (AlphaFold Algorithm 19) on a normalised
/// row-major shard `[S, R/k, c_m]`. One mean-pooled query per column
/// attends over the sequences, so the logits are `O(S)` per column rather
/// than `O(S²)`; each sequence then gates the shared attention output.
fn global_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    let (heads, c_hidden) = (dims.msa_heads, dims.c_hidden_msa);
    let hd = heads * c_hidden;
    let (seqs, cols) = {
        let d = g.value(x).dims();
        (d[0], d[1])
    };
    let outs = qkv_gate(g, store, prefix, x, dims.c_m, hd)?;
    // One query per column: the mean over the sequence axis,
    // [R/k, hd] -> [R/k, h, 1, d].
    let q_mean = g.mean_axis(outs[0], 0)?;
    let qh = g.reshape(q_mean, &[cols, heads, 1, c_hidden])?;
    // Keys/values: [S, R/k, hd] -> [R/k, h, S, d].
    let mut per_head = |t: Var| {
        let r4 = g.reshape(t, &[seqs, cols, heads, c_hidden])?;
        g.permute(r4, &[1, 2, 0, 3])
    };
    let (kh, vh) = (per_head(outs[1])?, per_head(outs[2])?);
    let scale = 1.0 / (c_hidden as f32).sqrt();
    let att = g.attention(qh, kh, vh, None, scale)?; // [R/k, h, 1, d]
    let att_flat = g.reshape(att, &[cols, hd])?;
    // Per-sequence gating of the shared column output (broadcast over S).
    let gsig = g.sigmoid(outs[3])?;
    let gated = g.mul(gsig, att_flat)?;
    Linear::new(format!("{prefix}.out"), hd, dims.c_m).apply(g, store, gated)
}

/// Applies dropout (when enabled) then the residual connection — AlphaFold
/// drops attention and triangle-update outputs before adding them back.
/// Each DAP rank salts the mask seed with its rank, as real per-device
/// dropout would; rank 0's salt is 0, so one rank draws the unsalted mask.
fn dropout_residual(
    g: &mut Graph,
    dims: &BlockDims,
    prefix: &str,
    rank: usize,
    residual: Var,
    update: Var,
) -> Result<Var> {
    let update = if dims.dropout > 0.0 {
        let seed = name_seed(prefix) ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        g.dropout(update, dims.dropout, seed)?
    } else {
        update
    };
    g.add(residual, update)
}

/// Module 1: MSA row-wise gated self-attention with pair bias — the
/// block's own module code at one rank.
pub fn msa_row_attention_with_pair_bias(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    let rows = msa_row_shards(g, store, dims, prefix, m, z, &LocalAxial(1))?;
    dap_all_gather(g, &LocalAxial(1), &rows)
}

/// Module 2: MSA column-wise gated self-attention (attends over
/// sequences) — the block's own module code at one rank.
pub fn msa_column_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
) -> Result<Var> {
    msa_column_gathered(g, store, dims, prefix, &[m], false, &LocalAxial(1))
}

/// Modules 3 & 9: the two-layer transition (feed-forward) block,
/// `x + W2 relu(W1 LN(x))`.
pub fn transition(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    let ln = layer_norm(g, store, &format!("{prefix}.ln"), c, x)?;
    let h = Linear::new(format!("{prefix}.fc1"), c, c * factor).apply(g, store, ln)?;
    let a = g.relu(h)?;
    let out = Linear::new(format!("{prefix}.fc2"), c * factor, c).apply(g, store, a)?;
    g.add(x, out)
}

/// Gradient-checkpointed variant of [`transition`]: the segment's
/// intermediate activations (the `factor×`-expanded hidden layer — the
/// largest activations in the block) are not retained; backward re-runs the
/// segment. This is OpenFold's memory workaround that ScaleFold disables
/// once DAP frees enough memory (§4.1).
pub fn transition_checkpointed(
    g: &mut Graph,
    store: &mut ParamStore,
    c: usize,
    factor: usize,
    prefix: &str,
    x: Var,
) -> Result<Var> {
    // Bind all parameters as explicit checkpoint inputs so their gradients
    // flow out of the re-executed segment.
    let gamma =
        g.use_param_or_init(store, &format!("{prefix}.ln.gamma"), || sf_tensor::Tensor::ones(&[c]));
    let beta =
        g.use_param_or_init(store, &format!("{prefix}.ln.beta"), || sf_tensor::Tensor::zeros(&[c]));
    let w1_name = format!("{prefix}.fc1.weight");
    let w1 = g.use_param_or_init(store, &w1_name, {
        let n = w1_name.clone();
        move || sf_tensor::Tensor::lecun_normal(&[c * factor, c], c, name_seed(&n))
    });
    let b1 = g.use_param_or_init(store, &format!("{prefix}.fc1.bias"), || {
        sf_tensor::Tensor::zeros(&[c * factor])
    });
    let w2_name = format!("{prefix}.fc2.weight");
    let w2 = g.use_param_or_init(store, &w2_name, {
        let n = w2_name.clone();
        move || sf_tensor::Tensor::lecun_normal(&[c, c * factor], c * factor, name_seed(&n))
    });
    let b2 = g.use_param_or_init(store, &format!("{prefix}.fc2.bias"), || {
        sf_tensor::Tensor::zeros(&[c])
    });
    g.checkpoint(&[x, gamma, beta, w1, b1, w2, b2], |sub, ins| {
        let [x, gamma, beta, w1, b1, w2, b2] = *ins else {
            unreachable!("checkpoint passes inputs through unchanged");
        };
        let ln = sub.layer_norm(x, gamma, beta)?;
        let w1t = sub.permute(w1, &[1, 0])?;
        let h0 = sub.matmul(ln, w1t)?;
        let h = sub.add(h0, b1)?;
        let a = sub.relu(h)?;
        let w2t = sub.permute(w2, &[1, 0])?;
        let o0 = sub.matmul(a, w2t)?;
        let o = sub.add(o0, b2)?;
        sub.add(x, o)
    })
}

/// Module 4: outer product mean — the MSA→pair communication channel.
/// `o[i,j] = mean_s a[s,i] ⊗ b[s,j]`, projected to `c_z`.
pub fn outer_product_mean(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    m: Var,
    z: Var,
) -> Result<Var> {
    let (s, r) = {
        let d = g.value(m).dims();
        (d[0], d[1])
    };
    let c = dims.c_opm;
    let m_ln = layer_norm(g, store, &format!("{prefix}.ln"), dims.c_m, m)?;
    let a = Linear::new(format!("{prefix}.a"), dims.c_m, c).apply(g, store, m_ln)?;
    let b = Linear::new(format!("{prefix}.b"), dims.c_m, c).apply(g, store, m_ln)?;
    // einsum('sic,sjd->ijcd') via one GEMM: [R*c, S] @ [S, R*c] = [R*c, R*c].
    let a2 = g.reshape(a, &[s, r * c])?;
    let b2 = g.reshape(b, &[s, r * c])?;
    let at = g.permute(a2, &[1, 0])?;
    let big = g.matmul(at, b2)?; // [R*c, R*c]
    let o4 = g.reshape(big, &[r, c, r, c])?;
    let o = g.permute(o4, &[0, 2, 1, 3])?; // [R, R, c, c]
    let flat = g.reshape(o, &[r, r, c * c])?;
    let mean = g.scale(flat, 1.0 / s as f32)?;
    let proj = Linear::new(format!("{prefix}.out"), c * c, dims.c_z).apply(g, store, mean)?;
    g.add(z, proj)
}

/// Modules 5 & 6: triangle multiplicative update.
/// Outgoing: `o[i,j] = Σ_k a[i,k] ⊙ b[j,k]`; incoming: `Σ_k a[k,i] ⊙ b[k,j]`.
pub fn triangle_multiplication(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    outgoing: bool,
) -> Result<Var> {
    let c = dims.c_hidden_mul;
    let z_ln = layer_norm(g, store, &format!("{prefix}.ln_in"), dims.c_z, z)?;
    let gated_proj = |g: &mut Graph, store: &mut ParamStore, which: &str| -> Result<Var> {
        let p = Linear::new(format!("{prefix}.{which}_proj"), dims.c_z, c).apply(g, store, z_ln)?;
        let gt = Linear::new(format!("{prefix}.{which}_gate"), dims.c_z, c).apply(g, store, z_ln)?;
        let sg = g.sigmoid(gt)?;
        g.mul(sg, p)
    };
    let a = gated_proj(g, store, "a")?;
    let b = gated_proj(g, store, "b")?;
    // Channel-major [c, R, R] so each channel is an R×R matrix product.
    let ac = g.permute(a, &[2, 0, 1])?;
    let bc = g.permute(b, &[2, 0, 1])?;
    let prod = if outgoing {
        // einsum('cik,cjk->cij') = A · Bᵀ
        let bt = g.permute(bc, &[0, 2, 1])?;
        g.matmul(ac, bt)?
    } else {
        // einsum('cki,ckj->cij') = Aᵀ · B
        let at = g.permute(ac, &[0, 2, 1])?;
        g.matmul(at, bc)?
    };
    let back = g.permute(prod, &[1, 2, 0])?; // [R, R, c]
    let ln_out = layer_norm(g, store, &format!("{prefix}.ln_out"), c, back)?;
    let proj = Linear::new(format!("{prefix}.out"), c, dims.c_z).apply(g, store, ln_out)?;
    let out_gate =
        Linear::new(format!("{prefix}.out_gate"), dims.c_z, dims.c_z).apply(g, store, z_ln)?;
    let og = g.sigmoid(out_gate)?;
    let gated = g.mul(og, proj)?;
    dropout_residual(g, dims, prefix, 0, z, gated)
}

/// Modules 7 & 8: triangle self-attention around the starting / ending
/// node — the block's own module code at one rank.
pub fn triangle_attention(
    g: &mut Graph,
    store: &mut ParamStore,
    dims: &BlockDims,
    prefix: &str,
    z: Var,
    starting: bool,
) -> Result<Var> {
    if starting {
        let out = triangle_attention_shards(g, store, dims, prefix, z, &[z])?;
        dap_all_gather(g, &LocalAxial(1), &out)
    } else {
        triangle_end_gathered(g, store, dims, prefix, &[z], &LocalAxial(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use sf_tensor::Tensor;

    /// The block at one rank: the unsharded model's block.
    fn block1(
        g: &mut Graph,
        store: &mut ParamStore,
        dims: &BlockDims,
        prefix: &str,
        m: Var,
        z: Var,
    ) -> (Var, Var) {
        evoformer_block(g, store, dims, prefix, m, z, false, false, &LocalAxial(1)).unwrap()
    }

    fn setup() -> (Graph, ParamStore, BlockDims, Var, Var) {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 1).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 2).mul_scalar(0.3));
        (g, store, dims, m, z)
    }

    #[test]
    fn block_preserves_shapes() {
        let (mut g, mut store, dims, m, z) = setup();
        let m_dims = g.value(m).dims().to_vec();
        let z_dims = g.value(z).dims().to_vec();
        let (m2, z2) = block1(&mut g, &mut store, &dims, "blk0", m, z);
        assert_eq!(g.value(m2).dims(), m_dims.as_slice());
        assert_eq!(g.value(z2).dims(), z_dims.as_slice());
        assert!(!g.value(m2).has_non_finite());
        assert!(!g.value(z2).has_non_finite());
    }

    #[test]
    fn block_output_differs_from_input() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) = block1(&mut g, &mut store, &dims, "blk0", m, z);
        assert!(!g.value(m2).allclose(g.value(m), 1e-6));
        assert!(!g.value(z2).allclose(g.value(z), 1e-6));
    }

    #[test]
    fn gradients_reach_all_block_params() {
        let (mut g, mut store, dims, m, z) = setup();
        let (m2, z2) = block1(&mut g, &mut store, &dims, "b", m, z);
        let lm = g.sum_all(m2).unwrap();
        let lz = g.sum_all(z2).unwrap();
        let loss = g.add(lm, lz).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        // Every registered parameter must receive a gradient entry.
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
        // And the critical paths must be non-zero.
        assert!(grads["b.msa_row.pair_bias.weight"].norm() > 0.0);
        assert!(grads["b.tri_mul_out.a_proj.weight"].norm() > 0.0);
        assert!(grads["b.opm.out.weight"].norm() > 0.0);
    }

    #[test]
    fn pair_bias_affects_msa_track() {
        // Zeroing z must change the row-attention output (bias path alive).
        let (mut g, mut store, dims, m, z) = setup();
        let out1 =
            msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z).unwrap();
        let z0 = g.constant(Tensor::zeros(g.value(z).dims()));
        let out2 =
            msa_row_attention_with_pair_bias(&mut g, &mut store, &dims, "pb", m, z0).unwrap();
        assert!(!g.value(out1).allclose(g.value(out2), 1e-7));
    }

    #[test]
    fn triangle_mult_outgoing_vs_incoming_differ() {
        let (mut g, mut store, dims, _m, z) = setup();
        let o = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, true).unwrap();
        let i = triangle_multiplication(&mut g, &mut store, &dims, "tm", z, false).unwrap();
        assert!(!g.value(o).allclose(g.value(i), 1e-7));
    }

    #[test]
    fn outer_product_mean_matches_reference() {
        // Direct check of the einsum('sic,sjd->ijcd')/S rearrangement on a
        // minimal case, against a quadruple loop.
        let (s, r, c_m, c) = (2usize, 3usize, 4usize, 2usize);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let dims = BlockDims {
            c_m,
            c_z: 3,
            msa_heads: 1,
            pair_heads: 1,
            c_hidden_msa: 2,
            c_hidden_pair: 2,
            c_hidden_mul: 2,
            c_opm: c,
            transition_factor: 2,
            dropout: 0.0,
            fused: true,
        };
        let m0 = Tensor::randn(&[s, r, c_m], 7);
        let z0 = Tensor::zeros(&[r, r, 3]);
        let m = g.constant(m0);
        let z = g.constant(z0);
        let out = outer_product_mean(&mut g, &mut store, &dims, "opm", m, z).unwrap();
        assert_eq!(g.value(out).dims(), &[r, r, 3]);

        // Reference: recompute o from the bound a/b projections, then apply
        // the stored output projection.
        let m_lnv = {
            let mut g2 = Graph::new();
            let mv = g2.constant(g.value(m).clone());
            let ln = layer_norm(&mut g2, &mut store, "opm.ln", c_m, mv).unwrap();
            g2.value(ln).clone()
        };
        let apply_lin = |name: &str, x: &Tensor, out_dim: usize| -> Tensor {
            let w = store.get(&format!("{name}.weight")).unwrap();
            let b = store.get(&format!("{name}.bias")).unwrap();
            let flat = x.reshape(&[s * r, c_m]).unwrap();
            flat.matmul_bt(w)
                .unwrap()
                .add(b)
                .unwrap()
                .reshape(&[s, r, out_dim])
                .unwrap()
        };
        let av = apply_lin("opm.a", &m_lnv, c);
        let bv = apply_lin("opm.b", &m_lnv, c);
        let mut o = Tensor::zeros(&[r, r, c * c]);
        for i in 0..r {
            for j in 0..r {
                for ci in 0..c {
                    for cj in 0..c {
                        let mut acc = 0.0;
                        for si in 0..s {
                            acc += av.at(&[si, i, ci]).unwrap() * bv.at(&[si, j, cj]).unwrap();
                        }
                        o.set(&[i, j, ci * c + cj], acc / s as f32).unwrap();
                    }
                }
            }
        }
        let w = store.get("opm.out.weight").unwrap();
        let bb = store.get("opm.out.bias").unwrap();
        let expect = o
            .reshape(&[r * r, c * c])
            .unwrap()
            .matmul_bt(w)
            .unwrap()
            .add(bb)
            .unwrap()
            .reshape(&[r, r, 3])
            .unwrap();
        assert!(g.value(out).allclose(&expect, 1e-4));
    }

    #[test]
    fn global_column_attention_shapes_and_grads() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::extra(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(
            Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 41).mul_scalar(0.3),
        );
        let one = &LocalAxial(1);
        let out = msa_column_gathered(&mut g, &mut store, &dims, "gc", &[m], true, one).unwrap();
        assert_eq!(g.value(out).dims(), &[cfg.n_extra_seq, cfg.n_res, cfg.c_e]);
        assert!(!g.value(out).has_non_finite());
        let loss = g.sum_all(out).unwrap();
        g.backward(loss).unwrap();
        let grads = g.grads_by_name().unwrap();
        for name in store.names() {
            assert!(grads.contains_key(&name), "no grad for {name}");
        }
    }

    #[test]
    fn global_column_attention_is_cheaper_than_full() {
        // The point of the global variant: tape activation bytes scale O(S)
        // for the logits instead of O(S^2).
        let mut cfg = ModelConfig::tiny();
        cfg.n_extra_seq = 32; // exaggerate the sequence axis
        let dims = BlockDims::extra(&cfg);
        let m0 = Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, cfg.c_e], 42).mul_scalar(0.3);

        let mut g1 = Graph::new();
        let mut store = ParamStore::new();
        let m1 = g1.constant(m0.clone());
        let one = &LocalAxial(1);
        let _ = msa_column_gathered(&mut g1, &mut store, &dims, "gc", &[m1], true, one).unwrap();

        let mut g2 = Graph::new();
        let m2 = g2.constant(m0);
        let _ = msa_column_attention(&mut g2, &mut store, &dims, "fc", m2).unwrap();
        assert!(
            g1.activation_bytes() < g2.activation_bytes(),
            "global {} vs full {}",
            g1.activation_bytes(),
            g2.activation_bytes()
        );
    }

    #[test]
    fn global_column_attention_matches_algorithm_19() {
        // Algorithm 19 by hand on a tiny fixed tensor: LayerNorm, a mean
        // query over S, a softmax over S per column and head, a sigmoid
        // gate per sequence, the output projection and the residual.
        let (s, r, c, heads, ch) = (3usize, 2usize, 4usize, 2usize, 2usize);
        let hd = heads * ch;
        let dims = BlockDims {
            c_m: c,
            c_z: 3,
            msa_heads: heads,
            pair_heads: 1,
            c_hidden_msa: ch,
            c_hidden_pair: 2,
            c_hidden_mul: 2,
            c_opm: 2,
            transition_factor: 2,
            dropout: 0.0,
            fused: true,
        };
        let mut store = ParamStore::new();
        // Non-trivial LayerNorm and biases, so the reference sees them.
        store.insert("gc.ln.gamma", Tensor::randn(&[c], 51));
        store.insert("gc.ln.beta", Tensor::randn(&[c], 52));
        store.insert("gc.gate.bias", Tensor::randn(&[hd], 53));
        store.insert("gc.out.bias", Tensor::randn(&[c], 54));
        let x0 = Tensor::randn(&[s, r, c], 55);
        let mut g = Graph::new();
        let x = g.constant(x0.clone());
        let one = &LocalAxial(1);
        let out = msa_column_gathered(&mut g, &mut store, &dims, "gc", &[x], true, one).unwrap();

        let p = |name: &str| store.get(&format!("gc.{name}")).unwrap().data().to_vec();
        // `w` is [out, in], as Linear stores it.
        let lin = |w: &[f32], b: Option<&[f32]>, v: &[f32]| -> Vec<f32> {
            (0..w.len() / v.len())
                .map(|o| {
                    let dot: f32 = v
                        .iter()
                        .enumerate()
                        .map(|(i, x)| w[o * v.len() + i] * x)
                        .sum();
                    dot + b.map_or(0.0, |b| b[o])
                })
                .collect()
        };
        let (gamma, beta) = (p("ln.gamma"), p("ln.beta"));
        let ln: Vec<Vec<f32>> = x0
            .data()
            .chunks(c)
            .map(|row| {
                let mean = row.iter().sum::<f32>() / c as f32;
                let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / c as f32;
                let rstd = 1.0 / (var + 1e-5).sqrt();
                (0..c)
                    .map(|i| (row[i] - mean) * rstd * gamma[i] + beta[i])
                    .collect()
            })
            .collect();
        // Per (sequence, column) row, in [S, R] order.
        let proj = |w: &[f32], b: Option<&[f32]>| -> Vec<Vec<f32>> {
            ln.iter().map(|v| lin(w, b, v)).collect()
        };
        let (q, k, v) = (
            proj(&p("q.weight"), None),
            proj(&p("k.weight"), None),
            proj(&p("v.weight"), None),
        );
        let gate = proj(&p("gate.weight"), Some(&p("gate.bias")));
        let (wo, bo) = (p("out.weight"), p("out.bias"));
        let mut expect = x0.clone();
        for col in 0..r {
            let row = |i: usize| i * r + col;
            let mut o = vec![0f32; hd];
            for h in 0..heads {
                let hs = h * ch..(h + 1) * ch;
                let q_mean: Vec<f32> = hs
                    .clone()
                    .map(|d| (0..s).map(|i| q[row(i)][d]).sum::<f32>() / s as f32)
                    .collect();
                let logits: Vec<f32> = (0..s)
                    .map(|i| {
                        let dot: f32 = hs
                            .clone()
                            .zip(&q_mean)
                            .map(|(d, qd)| qd * k[row(i)][d])
                            .sum();
                        dot / (ch as f32).sqrt()
                    })
                    .collect();
                let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let e: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
                let sum: f32 = e.iter().sum();
                for d in hs {
                    o[d] = (0..s).map(|i| e[i] / sum * v[row(i)][d]).sum();
                }
            }
            for i in 0..s {
                let gated: Vec<f32> = (0..hd)
                    .map(|d| o[d] / (1.0 + (-gate[row(i)][d]).exp()))
                    .collect();
                let update = lin(&wo, Some(&bo), &gated);
                for (ci, u) in update.iter().enumerate() {
                    expect
                        .set(&[i, col, ci], x0.at(&[i, col, ci]).unwrap() + u)
                        .unwrap();
                }
            }
        }
        assert!(
            g.value(out).allclose(&expect, 1e-5),
            "got {:?}, want {:?}",
            g.value(out).data(),
            expect.data()
        );
    }

    /// The extra-MSA stack's global column attention has no dropout
    /// (Algorithm 18), so its stage output does not depend on `dropout`.
    #[test]
    fn global_column_attention_ignores_dropout() {
        let cfg = ModelConfig::tiny();
        let mut dims = BlockDims::extra(&cfg);
        let x0 = Tensor::randn(&[cfg.n_extra_seq, cfg.n_res, dims.c_m], 41);
        let mut store = ParamStore::new();
        let mut run = |dims: &BlockDims| {
            let mut g = Graph::new();
            let x = g.constant(x0.clone());
            let one = &LocalAxial(1);
            let out = msa_column_gathered(&mut g, &mut store, dims, "gc", &[x], true, one).unwrap();
            g.value(out).clone()
        };
        let dry = run(&dims);
        dims.dropout = 0.5;
        assert_eq!(run(&dims).data(), dry.data());
    }

    #[test]
    fn dropout_changes_outputs_but_preserves_shapes() {
        let cfg = ModelConfig::tiny();
        let mut dims = BlockDims::main(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let m = g.constant(Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 31).mul_scalar(0.3));
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 32).mul_scalar(0.3));
        let (m_dry, z_dry) = block1(&mut g, &mut store, &dims, "d", m, z);
        dims.dropout = 0.3;
        let (m_wet, z_wet) = block1(&mut g, &mut store, &dims, "d", m, z);
        assert_eq!(g.value(m_wet).dims(), g.value(m_dry).dims());
        assert!(!g.value(m_wet).allclose(g.value(m_dry), 1e-7));
        assert!(!g.value(z_wet).allclose(g.value(z_dry), 1e-7));
        assert!(!g.value(m_wet).has_non_finite());
    }

    #[test]
    fn one_rank_block_is_the_public_modules_in_sequence() {
        // The block at one rank must be exactly modules 1-9 composed from
        // the public per-module functions (the ones module probes time):
        // same forward values, bit for bit, and the same tape.
        for fused in [true, false] {
            let cfg = ModelConfig::tiny();
            let mut dims = BlockDims::main(&cfg);
            dims.fused = fused;
            let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 3).mul_scalar(0.3);
            let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 4).mul_scalar(0.3);

            let mut g_blk = Graph::new();
            let mut store = ParamStore::new();
            let m = g_blk.constant(m0.clone());
            let z = g_blk.constant(z0.clone());
            let (mb, zb) = block1(&mut g_blk, &mut store, &dims, "b", m, z);

            let mut g = Graph::new();
            let (gr, st, d) = (&mut g, &mut store, &dims);
            let m = gr.constant(m0);
            let z = gr.constant(z0);
            let f = d.transition_factor;
            let m = msa_row_attention_with_pair_bias(gr, st, d, "b.msa_row", m, z).unwrap();
            let m = msa_column_attention(gr, st, d, "b.msa_col", m).unwrap();
            let m = transition(gr, st, d.c_m, f, "b.msa_trans", m).unwrap();
            let z = outer_product_mean(gr, st, d, "b.opm", m, z).unwrap();
            let z = triangle_multiplication(gr, st, d, "b.tri_mul_out", z, true).unwrap();
            let z = triangle_multiplication(gr, st, d, "b.tri_mul_in", z, false).unwrap();
            let z = triangle_attention(gr, st, d, "b.tri_att_start", z, true).unwrap();
            let z = triangle_attention(gr, st, d, "b.tri_att_end", z, false).unwrap();
            let z = transition(gr, st, d.c_z, f, "b.pair_trans", z).unwrap();

            assert_eq!(g.value(m).data(), g_blk.value(mb).data(), "fused={fused}: MSA track");
            assert_eq!(g.value(z).data(), g_blk.value(zb).data(), "fused={fused}: pair track");
            assert_eq!(g.len(), g_blk.len(), "fused={fused}: tape node count");
        }
    }

    #[test]
    fn dap_block_matches_unsharded_bitwise() {
        // With dropout off, the DAP-k block must reproduce the block at
        // one rank (the unsharded model) exactly (forward values), for
        // every rank count dividing both axes, fused and composed
        // attention alike, with full and with global column attention.
        for (fused, global) in [(true, false), (false, false), (true, true)] {
            let cfg = ModelConfig::tiny();
            let mut dims = BlockDims::main(&cfg);
            dims.fused = fused;
            let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 5).mul_scalar(0.3);
            let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 6).mul_scalar(0.3);
            let run = |k: usize| {
                let mut g = Graph::new();
                let mut store = ParamStore::new();
                let m = g.constant(m0.clone());
                let z = g.constant(z0.clone());
                let dap = LocalAxial(k);
                let (mk, zk) =
                    evoformer_block(&mut g, &mut store, &dims, "blk", m, z, false, global, &dap)
                        .unwrap();
                (g.value(mk).clone(), g.value(zk).clone())
            };
            let (m_ref, z_ref) = run(1);
            for k in [1usize, 2, 4] {
                let (mk, zk) = run(k);
                let tag = format!("fused={fused} global={global} k={k}");
                assert_eq!(mk.data(), m_ref.data(), "{tag}: MSA track diverged");
                assert_eq!(zk.data(), z_ref.data(), "{tag}: pair track diverged");
            }
        }
    }

    #[test]
    fn dap_block_gradients_match_unsharded() {
        // Weight gradients accumulate per-rank (summed by name), so they
        // match the one-rank single-GEMM reduction to fp tolerance.
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::main(&cfg);
        let m0 = Tensor::randn(&[cfg.n_seq, cfg.n_res, cfg.c_m], 8).mul_scalar(0.3);
        let z0 = Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_z], 9).mul_scalar(0.3);

        let run = |k: usize, global: bool| {
            let mut g = Graph::new();
            let mut store = ParamStore::new();
            let m = g.constant(m0.clone());
            let z = g.constant(z0.clone());
            let dap = LocalAxial(k);
            let (m2, z2) =
                evoformer_block(&mut g, &mut store, &dims, "b", m, z, false, global, &dap).unwrap();
            // O(1)-scale loss (like the real training losses) so the 1e-5
            // equivalence tolerance is meaningful.
            let lm = g.mean_all(m2).unwrap();
            let lz = g.mean_all(z2).unwrap();
            let loss = g.add(lm, lz).unwrap();
            g.backward(loss).unwrap();
            g.grads_by_name().unwrap()
        };
        for global in [false, true] {
            let g_ref = run(1, global);
            for k in [1usize, 2, 4] {
                let g_k = run(k, global);
                assert_eq!(g_ref.len(), g_k.len(), "k={k}: parameter set differs");
                for (name, gr) in &g_ref {
                    // Elementwise |a-b| <= 1e-5 (+relative): the contract's
                    // tolerance. Differences come only from per-rank
                    // gradient accumulation order (and pure-cancellation
                    // residues like the pair-bias LN beta, whose true
                    // gradient is ~0 since a uniform logit shift leaves
                    // softmax invariant).
                    assert!(
                        gr.allclose(&g_k[name], 1e-5),
                        "k={k} global={global}: gradient mismatch at {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn pair_block_runs() {
        let cfg = ModelConfig::tiny();
        let dims = BlockDims::template(&cfg);
        let mut g = Graph::new();
        let mut store = ParamStore::new();
        let z = g.constant(Tensor::randn(&[cfg.n_res, cfg.n_res, cfg.c_t], 9).mul_scalar(0.2));
        let z2 = pair_block(&mut g, &mut store, &dims, "tpl", z, false, &LocalAxial(1)).unwrap();
        assert_eq!(g.value(z2).dims(), g.value(z).dims());
        assert!(!g.value(z2).has_non_finite());
    }
}
