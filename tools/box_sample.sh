# Readings of the box around one benchmark run, without changing
# anything on it. Sourced by `tools/bench_record.sh` and
# `tools/paired_bench.sh`:
#
#   box_begin
#   <one run>
#   box_end <file.jsonl>
#
# `box_end` appends one JSON line to the file: the guest steal during
# the run (8th field of the `cpu` line of /proc/stat, as a share of all
# CPU time that passed) and the 1-minute load average of /proc/loadavg
# before and after it.

# Steal and total jiffies of all CPUs so far (user .. steal; guest time
# is already counted in user).
cpu_jiffies() {
    awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t }' /proc/stat
}

load1() {
    cut -d' ' -f1 /proc/loadavg
}

box_begin() {
    read -r box_steal0 box_total0 < <(cpu_jiffies)
    box_load0="$(load1)"
}

box_end() {
    local steal1 total1
    read -r steal1 total1 < <(cpu_jiffies)
    awk -v s=$((steal1 - box_steal0)) -v t=$((total1 - box_total0)) -v b="$box_load0" -v a="$(load1)" \
        'BEGIN { printf "{\"steal_pct\": %.3f, \"load1_before\": %s, \"load1_after\": %s}\n", (t > 0 ? 100 * s / t : 0), b, a }' \
        >>"$1"
}
