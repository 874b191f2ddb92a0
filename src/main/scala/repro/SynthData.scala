package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic input: the event stream the window queries run over. It is
  * deterministic in its seed, so the DuckDB oracle sees identical input.
  */
object SynthData {
  /** Event stream for window-aggregate papers: `rows` events with integer
    * event time `t` uniform in `[0, horizon)` (steady rate η ≈ rows/horizon),
    * device key `k` in `[1, nKeys]`, and a double value `v` in `[0, 100)`.
    * Deterministic in `seed`; mirrors the temperature-by-device stream of
    * Figure 1.
    */
  def events(spark: SparkSession, rows: Long, horizon: Long, nKeys: Long = 4,
             seed: Long = 7): DataFrame = {
    spark.range(rows).select(
      (rand(seed) * horizon).cast(LongType)        as "t",
      (rand(seed + 1) * nKeys + 1).cast(LongType)  as "k",
      round(rand(seed + 2) * 100, 3)               as "v",
    )
  }
}
