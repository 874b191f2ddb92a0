package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** Benchmark entry point, one workload per JVM.
  *
  * Usage: `Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *               --master local[n] --work <dir> --out <file> --spans <file>`
  *
  * Writes the raw measurements (samples, counts, per-layer values) as one
  * JSON object to `--out`, and in traced runs every recorded span to
  * `--spans`. `perfbench/run.py` turns these files into the reported
  * metrics: medians of the samples, percentiles and span self times.
  */
object Bench {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean,
                        master: String, work: String, out: String, spans: String)

  /** Results common to every workload; `layer` holds the per-layer values
    * measured on the JVM side.
    */
  final class Result {
    val setupS     = mutable.ArrayBuffer.empty[Double]
    val inputGenS  = mutable.ArrayBuffer.empty[Double]
    val samplesMs  = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val tracedMs   = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val heapMb     = mutable.ArrayBuffer.empty[Double]
    val errors     = mutable.ArrayBuffer.empty[String]
    val layer      = mutable.LinkedHashMap.empty[String, Double]
    var eventsPerSample = 0L
    var attempted  = 0
    var failed     = 0
    var cacheChecks = 0
    var cacheHits  = 0

    def sample(plan: String, ms: Double): Unit =
      samplesMs.getOrElseUpdate(plan, mutable.ArrayBuffer.empty) += ms

    def traced(plan: String, ms: Double): Unit =
      tracedMs.getOrElseUpdate(plan, mutable.ArrayBuffer.empty) += ms

    /** Count one attempted operation; `error` is `Some(reason)` if it
      * threw or disagreed with the reference.
      */
    def attempt(error: Option[String]): Unit = {
      attempted += 1
      error.foreach { e => failed += 1; if (errors.size < 20) errors += e }
    }

    def toMap(a: Args): Map[String, Any] = Map(
      "workload" -> a.workload, "seed" -> a.seed, "trace" -> a.trace,
      "setup_s" -> setupS, "input_gen_s" -> inputGenS,
      "samples_ms" -> samplesMs, "traced_ms" -> tracedMs, "heap_mb" -> heapMb,
      "events_per_sample" -> eventsPerSample,
      "attempted" -> attempted, "failed" -> failed, "errors" -> errors,
      "cache_checks" -> cacheChecks, "cache_hits" -> cacheHits,
      "layer" -> layer)
  }

  /** Plan names in the order of the first timed round; later rounds rotate
    * it so that no plan always runs first.
    */
  val Plans: Vector[String] = Vector("bl", "wcg", "wcgfw")

  /** Shuffle partitions of the batch executor, as in the tests and `RuntimeJob`. */
  val BatchPartitions = 64

  def rotate[T](xs: Vector[T], i: Int): Vector[T] = {
    val k = i % xs.size
    xs.drop(k) ++ xs.take(k)
  }

  def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Whether the timed section, begun at `start`, runs another round after
    * `done` rounds: always a first one, then more until `--seconds` have
    * passed. A traced run times one round only; it needs these times just
    * for the model gap and the tracing overhead.
    */
  def moreRounds(a: Args, start: Long, done: Int): Boolean =
    done == 0 || (!a.trace && System.nanoTime() - start < a.seconds * 1000000000L)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2)
    else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Heap occupancy in MB right after a full GC: the least of three, since
    * objects released by cleaners need a further cycle.
    */
  def liveHeapMb(): Double =
    (1 to 3).map { _ =>
      System.gc()
      ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
    }.min

  /** Same-valued keyed results compare equal within the relative tolerance
    * of `RuntimeHarness` (hierarchical plans add floats in another order).
    * Returns the first difference, if any.
    */
  def diff(got: Map[Seq[Long], Double], want: Map[Seq[Long], Double]): Option[String] =
    if (got.keySet != want.keySet)
      Some(s"row sets differ: ${got.size} rows vs ${want.size} expected, e.g. " +
        (got.keySet diff want.keySet).headOption.orElse((want.keySet diff got.keySet).headOption)
          .mkString)
    else got.collectFirst {
      case (k, v) if !(math.abs(v - want(k)) <= 1e-6 * math.max(1.0, math.abs(v))) =>
        s"value at $k: $v vs ${want(k)}"
    }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1",
      get("master"), get("work"), get("out"), get("spans"))
  }

  def main(argv: Array[String]): Unit = {
    val code = try { run(parse(argv)); 0 } catch {
      case e: Throwable => e.printStackTrace(); 1
    }
    // Spark and streaming leave non-daemon threads behind; end the JVM here.
    System.exit(code)
  }

  private def run(a: Args): Unit = {
    val runner: (SparkSession, Args, Result, Tracer) => Unit = a.workload match {
      case w if BatchBench.Workloads.contains(w) => BatchBench.run(BatchBench.Workloads(w))
      case StreamBench.Name                      => StreamBench.run
      case other => throw new IllegalArgumentException(s"unknown workload '$other'")
    }
    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(a.master)
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", BatchPartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.local.dir", s"${a.work}/spark-local")
      .config("spark.sql.warehouse.dir", s"${a.work}/warehouse")
      .config("spark.sql.streaming.numRecentProgressUpdates", 10000)
      .getOrCreate()
    val sessionS = ms(t0) / 1e3
    val res = new Result
    val tracer = new Tracer
    try {
      runner(spark, a, res, tracer)
      res.setupS.mapInPlace(_ + sessionS)
      res.layer("input.session_s") = sessionS
    } finally spark.stop()
    Files.writeString(Paths.get(a.out), Json(res.toMap(a)))
    if (a.trace) Files.writeString(Paths.get(a.spans), Json(tracer.spans))
  }
}
