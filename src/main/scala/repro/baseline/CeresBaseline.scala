package repro.baseline

import scala.util.Random

import org.apache.spark.sql.{Dataset, SparkSession}

import repro.core.{EntityMatch, Extractor, FeatureGen, Trainer}
import repro.dom.{PageDoc, PageTree}
import repro.kb.KnowledgeBase

/** CERES-Baseline (§5.2): the original Distant Supervision Assumption on DOM
  * trees — annotate every pair of entity mentions on a page that matches a
  * KB triple, train on concatenated node-pair features, and at extraction
  * time classify pairs of KB-matched candidate nodes.
  *
  * The paper reports this baseline ran out of 32 GB of memory on the Movie
  * vertical because of the quadratic pair blow-up; we bound the damage with
  * explicit per-page caps (`SubjectCap` x `ObjectCap` candidate pairs) and
  * report the caps in EXPERIMENTS.md.  Quality-wise, the caps only help the
  * baseline, so the comparison remains fair in the paper's direction.
  */
object CeresBaseline {

  private val Threshold  = 0.5
  private val SubjectCap = 40
  private val ObjectCap  = 80
  private val Seed       = 19L

  private def pairFeatures(tree: PageTree, s: Int, o: Int, freq: Set[String]): Vector[String] =
    FeatureGen.nodeFeatures(tree, s, freq).map("S|" + _) ++
      FeatureGen.nodeFeatures(tree, o, freq).map("O|" + _)

  def run(
      pages: Dataset[PageDoc],
      trainIds: Set[String],
      kb: KnowledgeBase,
  )(implicit spark: SparkSession): Vector[Extractor.Extraction] = {
    import spark.implicits._
    val kbB = spark.sparkContext.broadcast(kb)
    val trainPages = if (trainIds.isEmpty) pages else pages.filter(p => trainIds.contains(p.pageId))

    val freq  = FeatureGen.frequentStrings(trainPages)
    val freqB = spark.sparkContext.broadcast(freq)

    // ---- pairwise annotation + negative sampling ------------------------
    val examples: Dataset[Trainer.Example] = trainPages.mapPartitions { it =>
      val kbL = kbB.value
      val fr  = freqB.value
      it.flatMap { p =>
        val tree     = new PageTree(p)
        val mentions = EntityMatch.mentions(p, kbL)
        val subjectMentions = mentions.filter(m => kbL.entitiesByName.contains(m.norm)).take(SubjectCap)
        val objectMentions  = mentions.take(ObjectCap)
        val positives = for {
          s <- subjectMentions
          e <- kbL.entitiesByName(s.norm).toVector.sorted
          objsByNorm = kbL.triplesOf.getOrElse(e, Vector.empty).groupBy(t => repro.util.Normalize(t.obj))
          o <- objectMentions
          if o.nodeId != s.nodeId
          t <- objsByNorm.getOrElse(o.norm, Vector.empty).map(_.predicate).distinct
        } yield Trainer.Example(t, pairFeatures(tree, s.nodeId, o.nodeId, fr))
        val rng   = new Random(Seed ^ p.pageId.hashCode.toLong)
        val texts = p.textNodes
        val negs =
          if (texts.size < 2) Vector.empty
          else Vector.fill(Trainer.NegRatio * positives.size) {
            val a = texts(rng.nextInt(texts.size))
            val b = texts(rng.nextInt(texts.size))
            Trainer.Example(Trainer.OtherLabel, pairFeatures(tree, a.id, b.id, fr))
          }
        (positives ++ negs).iterator
      }
    }

    val model  = Trainer.train(examples)
    val modelB = spark.sparkContext.broadcast(model)

    // ---- pairwise extraction over KB-matched candidates -----------------
    pages.mapPartitions { it =>
      val kbL = kbB.value
      val fr  = freqB.value
      val m   = modelB.value
      it.flatMap { p =>
        val tree     = new PageTree(p)
        val mentions = EntityMatch.mentions(p, kbL)
        val subjects = mentions.filter(x => kbL.entitiesByName.contains(x.norm)).take(SubjectCap)
        val objects  = mentions.take(ObjectCap)
        for {
          s <- subjects.iterator
          o <- objects.iterator
          if o.nodeId != s.nodeId
          (label, prob) = m.predict(pairFeatures(tree, s.nodeId, o.nodeId, fr))
          if label != Trainer.OtherLabel && prob >= Threshold
        } yield Extractor.Extraction(p.site, p.pageId, p.cluster, tree.node(o.nodeId).xpath,
          label, tree.node(o.nodeId).text, tree.node(s.nodeId).text, prob)
      }
    }.collect().toVector
  }
}
