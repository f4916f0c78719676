package repro.core

import org.apache.spark.ml.classification.LogisticRegression
import org.apache.spark.ml.linalg.Vectors
import org.apache.spark.sql.{Dataset, SparkSession}

import repro.SparkSpec
import repro.dom.PageTree
import repro.util.FeatureHash
import repro.web.Verticals

/** The driver-local fit against the Spark ML multinomial
  * `LogisticRegression` it replaced, on the training sets of real sites:
  * both minimise the same objective, so they must make the same extraction
  * decisions.
  */
class TrainerEquivalenceSpec extends SparkSpec {

  /** The former `Trainer.train`: Spark ML's LBFGS over the hashed features,
    * one Spark job per iteration.
    */
  private def sparkMlTrain(examples: Dataset[Trainer.Example], maxIter: Int = 40, regParam: Double = 1e-4)(
      implicit spark: SparkSession): Trainer.NodeClassifier = {
    import spark.implicits._
    val labels = (examples.map(_.label).distinct().collect().toVector :+ Trainer.OtherLabel).distinct.sorted
    val labelIndex = labels.zipWithIndex.toMap
    val rows = examples.collect().toSeq.map { ex =>
      val idx = FeatureHash.encode(ex.features)
      (labelIndex(ex.label).toDouble, Vectors.sparse(FeatureHash.Dim, idx, Array.fill(idx.length)(1.0)))
    }.toDF("label", "features").coalesce(4).cache()
    val model = new LogisticRegression()
      .setFamily("multinomial")
      .setMaxIter(maxIter)
      .setRegParam(regParam)
      .setElasticNetParam(0.0)
      .setStandardization(false)
      .fit(rows)
    rows.unpersist()
    val coef = Array.ofDim[Double](labels.size, FeatureHash.Dim)
    model.coefficientMatrix.foreachActive { case (r, c, v) => coef(r)(c) = v }
    new Trainer.NodeClassifier(labels, coef, model.interceptVector.toArray)
  }

  test("driver-local LBFGS makes Spark ML's decisions on movie, nbaplayer and university sites") {
    implicit val s: SparkSession = spark
    import spark.implicits._
    val verticals = Seq(
      Verticals.movie(nSites = 2, pagesPerSite = 120, seed = 7),
      Verticals.nbaplayer(nSites = 2, pagesPerSite = 120, seed = 7),
      Verticals.university(nSites = 2, pagesPerSite = 120, seed = 7))
    var nodes, sameLabel = 0
    var maxDiff = 0.0
    for (vd <- verticals; site <- vd.sites.take(2)) {
      val pages  = spark.createDataset(site.pages)
      val kbB    = spark.sparkContext.broadcast(vd.kb)
      val topics = TopicId.identify(pages, kbB).collect().toVector
      val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
      val freq     = FeatureGen.frequentStrings(pages)
      val examples = Trainer.buildExamples(pages, anns, spark.sparkContext.broadcast(freq)).cache()
      val local = Trainer.train(examples)
      val ref   = sparkMlTrain(examples)
      examples.unpersist()
      assert(local.labels == ref.labels, site.site)
      site.pages.foreach { p =>
        val tree = new PageTree(p)
        p.textNodes.foreach { n =>
          val f  = FeatureGen.nodeFeatures(tree, n.id, freq)
          val pl = local.probabilities(f)
          val pr = ref.probabilities(f)
          nodes += 1
          if (pl.indices.maxBy(pl(_)) == pr.indices.maxBy(pr(_))) sameLabel += 1
          maxDiff = math.max(maxDiff, pl.indices.map(k => math.abs(pl(k) - pr(k))).max)
          // The extraction decision: which label, if any, clears the threshold.
          assert(pl.indexWhere(_ >= 0.5) == pr.indexWhere(_ >= 0.5),
            s"${site.site} ${n.xpath}: ${pl.toSeq} vs ${pr.toSeq}")
        }
      }
    }
    info(s"$sameLabel / $nodes labels agree; max probability difference $maxDiff")
    assert(sameLabel >= 0.999 * nodes, s"$sameLabel / $nodes")
  }
}
